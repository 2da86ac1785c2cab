"""Markov influence systems: exact simulation on the probability simplex.

A system picks a row-stochastic matrix per polyhedral cell of the
simplex; a step maps x to x^T S(x). Cells are cut out by hyperplanes
a.x = 1 + delta and matched by ordered sign patterns over {+,-,*}
(first match wins). States sitting exactly on a hyperplane are mapped
to themselves, so orbits hitting a discontinuity freeze there.

All arithmetic is exact rational. Long orbits grow entry bit sizes, so
simulation runs in one of three modes: unbounded exact, exact with a
bit-size cap (default), or lossy rounding to dyadics of a fixed
precision (the trace is then flagged inexact).
"""

import math
from fractions import Fraction
from itertools import chain

from . import digraph as dg
from ._record import FrozenRecord, Record
from .rational import (
    _int_matrix,
    _kron_int,
    as_fraction_matrix,
    as_fraction_vector,
    format_ratio,
    format_rational,
    mat_inf_norm,
    parse_ratio,
    parse_rational,
    solve_unique,
)

DEFAULT_BIT_CAP = 1 << 16

ON_DISCONTINUITY = None  # locate_cell result for states on a hyperplane


class NoCellMatch(Exception):
    """No cell pattern covers the computed sign vector."""

    def __init__(self, signs, step=None):
        self.signs = signs
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"no cell matches sign vector {signs}{at}")


class BitSizeExceeded(Exception):
    def __init__(self, bits, cap, step=None):
        self.bits = bits
        self.cap = cap
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"state entry needs {bits} bits (cap {cap}){at}")


class NotPrimitive(Exception):
    pass


class ConfigFormatError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_simplex(values, negative, unsummed):
    """Raise ValueError(negative) when one of values (Fractions) is
    negative, else ValueError(unsummed) unless they sum to 1. One
    integer pass: the numerators, scaled to the lcm of the
    denominators, must sum to that lcm."""
    scale = math.lcm(*(v.denominator for v in values))
    total = 0
    for v in values:
        if v.numerator < 0:
            raise ValueError(negative)
        total += v.numerator * (scale // v.denominator)
    if total != scale:
        raise ValueError(unsummed)


class SimplexVector(tuple):
    """Exact point of the standard simplex: nonnegative, sums to one."""

    def __new__(cls, coords):
        coords = as_fraction_vector(coords)
        _check_simplex(coords, "negative coordinate", "coordinates do not sum to 1")
        return super().__new__(cls, coords)

    @property
    def bit_size(self):
        """Largest numerator-plus-denominator bit count over the entries."""
        return max(c.numerator.bit_length() + c.denominator.bit_length() for c in self)


class StochasticMatrix:
    """Square row-stochastic matrix with exact rational entries.

    The matrix is stored as its integer form (k, e): e is the lcm of the
    entries' reduced denominators and k = e * S, a tuple of integer row
    tuples, so equal matrices have equal forms. ==, hash, the support,
    the orbit engine and the config writer all read (k, e). rows, the
    Fraction rows, are derived from it on first read and then kept; a
    matrix built from rows keeps the rows it was given.

    The diagonal must be strictly positive unless allow_zero_diagonal is
    set (needed for constructions whose reset rows move all mass away).
    """

    __slots__ = ("n", "k", "e", "_rows")

    def __init__(self, rows, allow_zero_diagonal=False):
        rows = _square(as_fraction_matrix(rows))
        k, e = _int_matrix(rows)
        _check_stochastic(k, e, allow_zero_diagonal)
        self.n = len(rows)
        self.k = k
        self.e = e
        self._rows = rows

    @property
    def rows(self):
        """Fraction rows k / e, derived on first read, then kept."""
        if self._rows is None:
            # One Fraction per distinct entry, shared by its repeats.
            e, k = self.e, self.k
            value = {v: Fraction(v, e) for v in set(chain.from_iterable(k))}
            self._rows = tuple(tuple(map(value.__getitem__, row)) for row in k)
        return self._rows

    def support(self):
        """Digraph view of the positive entries, built like a kernel
        result straight from the flat support bits.

        Self-loops are forced into the view (the digraph type requires
        them); that never changes reachability or strong connectivity.
        Primitivity checks go through is_primitive, which inspects the
        raw support instead.
        """
        n = self.n
        return dg._digraph(n, _support(self.k) | sum(1 << i * (n + 1) for i in range(n)))

    def has_positive_diagonal(self):
        return all(row[i] for i, row in enumerate(self.k))

    def __eq__(self, other):
        return isinstance(other, StochasticMatrix) and self.e == other.e and self.k == other.k

    def __hash__(self):
        return hash((self.e, self.k))

    def __repr__(self):
        return f"StochasticMatrix({self.rows!r})"


def _square(rows):
    """rows, refused unless they form a square matrix of at least one row."""
    if not rows:
        raise ValueError("matrix has no rows")
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return rows


def _check_stochastic(k, e, allow_zero_diagonal):
    """Refuse the integer form (k, e) unless each row of k is nonnegative
    and sums to e, and, unless allow_zero_diagonal, its diagonal is
    positive; rows are checked in order, each for all three."""
    for i, row in enumerate(k):
        if min(row) < 0:
            raise ValueError(f"negative entry in row {i}")
        if sum(row) != e:
            raise ValueError(f"row {i} does not sum to 1")
        if not allow_zero_diagonal and not row[i]:
            raise ValueError(f"zero diagonal at row {i}")


def _stochastic(k, e):
    """A StochasticMatrix of the integer form (k, e), which must be in
    lowest terms, for results that are stochastic by construction: the
    checks are skipped and rows is derived on first read."""
    m = object.__new__(StochasticMatrix)
    m.n = len(k)
    m.k = k
    m.e = e
    m._rows = None
    return m


class Hyperplane(FrozenRecord):
    """Discontinuity a.x = 1 + delta (delta supplied by the system)."""

    __slots__ = ("normal",)

    def __init__(self, normal):
        normal = as_fraction_vector(normal)
        if all(v == 0 for v in normal):
            raise ValueError("hyperplane normal is zero")
        object.__setattr__(self, "normal", normal)


class Cell(FrozenRecord):
    """A sign pattern and the stochastic matrix applied in its region;
    the label names the cell in output and is left out of ==."""

    __slots__ = ("pattern", "matrix", "label")

    def __init__(self, pattern, matrix, label=""):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "label", label)

    def _key(self):
        return self.pattern, self.matrix


class MISystem:
    """Immutable system description: hyperplanes, delta, cells.

    omega bounds the delta window [-omega, omega]. Validation enforces
    omega < 1/2 and delta inside the window; whether the cell partition
    stays combinatorially the same across the whole window is the
    caller's obligation (no algorithm is provided to certify it).
    """

    def __init__(self, n, hyperplanes, cells, delta=0, omega=Fraction(1, 4)):
        self.n = n
        self.hyperplanes = tuple(hyperplanes)
        self.cells = tuple(cells)
        self.delta = Fraction(delta)
        self.omega = Fraction(omega)
        _check_omega(self.omega)
        _check_delta(self.delta, self.omega)
        for h in self.hyperplanes:
            if len(h.normal) != n:
                raise ValueError("hyperplane dimension mismatch")
        if not self.cells:
            raise ValueError("system needs at least one cell")
        for cell in self.cells:
            _check_pattern(cell.pattern, len(self.hyperplanes))
            if cell.matrix.n != n:
                raise ValueError("cell matrix dimension mismatch")

    def with_delta(self, delta):
        return MISystem(self.n, self.hyperplanes, self.cells, delta=delta, omega=self.omega)

    def __eq__(self, other):
        return (
            isinstance(other, MISystem)
            and self.n == other.n
            and self.hyperplanes == other.hyperplanes
            and self.cells == other.cells
            and self.delta == other.delta
            and self.omega == other.omega
        )


def _check_omega(omega):
    if not 0 < omega < Fraction(1, 2):
        raise ValueError("omega must lie strictly between 0 and 1/2")


def _check_delta(delta, omega):
    if abs(delta) > omega:
        raise ValueError("delta outside [-omega, omega]")


def _check_pattern(pattern, hyperplane_count):
    if len(pattern) != hyperplane_count:
        raise ValueError(f"pattern {pattern!r} does not cover {hyperplane_count} hyperplanes")
    if any(ch not in "+-*" for ch in pattern):
        raise ValueError(f"bad pattern character in {pattern!r}")


def locate_cell(system, x):
    """Index of the first cell whose pattern matches the sign vector of x,
    or ON_DISCONTINUITY when some hyperplane holds with equality."""
    return _IntCells(system).locate(*_int_state(as_fraction_vector(x)))


# ---------------------------------------------------------------------------
# The orbit engine
#
# A state x is held as one integer vector p over one shared denominator
# D in lowest terms (x = p / D, gcd(D, *p) == 1, so the pair is unique
# and equal states have equal pairs). Each cell matrix S is read as the
# integer form it stores, K = E * S with E the lcm of its entry
# denominators, so no run rescales it, and each hyperplane test a.x vs
# 1 + delta becomes one integer comparison of A.p against c * D. A step
# is then p -> p K over D * E, reduced by one gcd.


def _int_tau(k, e):
    """Coefficient of ergodicity of K / E: max_(i<j) sum |K_i - K_j| / (2 E)."""
    best = 0
    for i in range(len(k)):
        for j in range(i + 1, len(k)):
            d = sum([abs(a - b) for a, b in zip(k[i], k[j])])
            if d > best:
                best = d
    return Fraction(best, 2 * e)


class _IntCells:
    """Integer form of a system's hyperplanes and cell matrices."""

    def __init__(self, system):
        threshold = 1 + system.delta
        self.planes = []  # (((i, A_i), ...) nonzero only, c)
        for h in system.hyperplanes:
            scale = math.lcm(*(v.denominator for v in h.normal))
            coeffs = tuple(
                (i, v.numerator * (scale // v.denominator) * threshold.denominator)
                for i, v in enumerate(h.normal)
                if v
            )
            self.planes.append((coeffs, threshold.numerator * scale))
        self.patterns = [cell.pattern for cell in system.cells]
        self.matrices = [(cell.matrix.k, cell.matrix.e) for cell in system.cells]
        self.columns = [  # per cell, per column j: ((i, K_ij), ...) nonzero only
            tuple(tuple((i, row[j]) for i, row in enumerate(k) if row[j]) for j in range(len(k)))
            for k, _ in self.matrices
        ]
        self._cell_of = {}  # tuple of "above" flags -> cell index
        self._taus = {}  # block of cell indices -> tau

    def locate(self, d, q):
        """Index of the first cell whose pattern matches the state q / d,
        or ON_DISCONTINUITY when the state lies on a hyperplane."""
        above = []
        for coeffs, c in self.planes:
            v = sum([q[i] * a for i, a in coeffs])
            w = c * d
            if v == w:
                return ON_DISCONTINUITY
            above.append(v > w)
        above = tuple(above)
        idx = self._cell_of.get(above)
        if idx is None:
            for idx, pattern in enumerate(self.patterns):
                if all(p == "*" or (p == "+") == s for p, s in zip(pattern, above)):
                    break
            else:
                raise NoCellMatch(tuple(1 if s else -1 for s in above))
            self._cell_of[above] = idx
        return idx

    def product(self, cells):
        """(K, E) of the matrix product along a run of cell indices, in
        step order: the integer product K over the product E of the
        scales."""
        rows, scale = self.matrices[cells[0]]
        for c in cells[1:]:
            cols = self.columns[c]
            rows = tuple(tuple(sum([r[i] * k for i, k in col]) for col in cols) for r in rows)
            scale *= self.matrices[c][1]
        return rows, scale

    def tau(self, cells):
        """Coefficient of ergodicity of the matrix product along a run of
        cell indices; memoised per run."""
        cells = tuple(cells)
        tau = self._taus.get(cells)
        if tau is None:
            tau = self._taus[cells] = _int_tau(*self.product(cells))
        return tau


def _int_state(x):
    """(D, p) of a SimplexVector: the lcm of its denominators and its
    numerators over it."""
    d = math.lcm(*(c.denominator for c in x))
    return d, tuple(c.numerator * (d // c.denominator) for c in x)


def _simplex(state):
    """SimplexVector of an integer state; the engine keeps its entries
    nonnegative and summing to D, so the checks are not repeated."""
    d, p = state
    return tuple.__new__(SimplexVector, [Fraction(v, d) for v in p])


class _Orbit:
    """One run of the dynamics from x0 on the integer form of the system.

    steps() is the one stepping loop behind step, orbit, detect_period
    and estimate_eta, and classify() the one classifier behind orbit
    and detect_period. With bit_cap set, a state with an entry of
    more than bit_cap bits raises BitSizeExceeded; with dyadic_bits set,
    each state is rounded to that many bits, and inexact records whether
    a rounding changed a state.
    """

    def __init__(self, system, x0, bit_cap=None, dyadic_bits=None):
        # A SimplexVector was checked when it was built.
        x = x0 if isinstance(x0, SimplexVector) else SimplexVector(x0)
        if len(x) != system.n:
            raise ValueError(
                f"start vector has {len(x)} coordinates, the system has {system.n} states"
            )
        self.start = x
        self.start_state = _int_state(x)
        self.cells = _IntCells(system)
        self.bit_cap = bit_cap
        self.dyadic_bits = dyadic_bits
        self.inexact = False

    def steps(self, horizon):
        """Yield (t, cell, state) for t = 0 .. horizon - 1, where cell is
        the index applied at step t (ON_DISCONTINUITY on a hyperplane,
        where the state stays put) and state = (D, p) is the state after
        the step."""
        locate = self.cells.locate
        matrices, columns = self.cells.matrices, self.cells.columns
        bit_cap, dyadic_bits = self.bit_cap, self.dyadic_bits
        state = self.start_state
        for t in range(horizon):
            d, q = state
            try:
                cell = locate(d, q)
            except NoCellMatch as exc:
                exc.step = t
                raise
            if cell is not ON_DISCONTINUITY:
                q = [sum([q[i] * k for i, k in col]) for col in columns[cell]]
                d *= matrices[cell][1]
                g = math.gcd(d, *q)
                if g != 1:
                    d //= g
                    q = [v // g for v in q]
                if any(v < 0 for v in q):
                    raise ValueError("negative coordinate")
                if sum(q) != d:
                    raise ValueError("coordinates do not sum to 1")
            state = (d, tuple(q))
            # No entry needs more than 2 * D.bit_length() bits, so the
            # exact entry sizes are only computed near the cap.
            if bit_cap is not None and 2 * d.bit_length() > bit_cap:
                bits = _simplex(state).bit_size
                if bits > bit_cap:
                    raise BitSizeExceeded(bits, bit_cap, step=t)
            if dyadic_bits is not None:
                x = _simplex(state)
                rounded = _round_dyadic(x, dyadic_bits)
                self.inexact = self.inexact or rounded != x
                state = _int_state(rounded)
            yield t, cell, state

    def classify(self, horizon, sustained=3, scan_interval=16, sigma_cap=0):
        """Run up to horizon steps and return (states, itinerary,
        verdict), states being the integer states from the start on.

        The run stops at the first exact recurrence or, with sigma_cap
        above 0, at the first asymptotic verdict of scan, which runs every
        scan_interval steps and at the horizon; sigma_cap=0 means exact
        recurrences only. Else the verdict is unresolved.
        """
        if sustained < 1:
            raise ValueError(f"sustained {sustained} must be at least 1")
        if scan_interval < 1:
            raise ValueError(f"scan_interval {scan_interval} must be at least 1")
        if sigma_cap < 0:
            raise ValueError(f"sigma_cap {sigma_cap} must be at least 0")
        states = [self.start_state]
        itinerary = []
        first_seen = {self.start_state: 0}  # state -> index of its first visit
        for t, cell, state in self.steps(horizon):
            itinerary.append(cell)
            states.append(state)
            t0 = first_seen.setdefault(state, t + 1)
            if t0 <= t:
                block = itinerary[t0:]
                tau = None if ON_DISCONTINUITY in block else self.cells.tau(block)
                verdict = PeriodVerdict(EXACT_PERIODIC, t0, t + 1 - t0, tau, horizon)
                return states, itinerary, verdict
            if sigma_cap and ((t + 1) % scan_interval == 0 or t + 1 == horizon):
                verdict = self.scan(itinerary, sustained, sigma_cap, horizon)
                if verdict is not None:
                    return states, itinerary, verdict
        return states, itinerary, PeriodVerdict(UNRESOLVED, horizon=horizon)

    def scan(self, itinerary, sustained, sigma_cap, horizon):
        """Asymptotic verdict for the smallest block length sigma, at
        most sigma_cap, whose last block repeats `sustained` times at the
        end of the itinerary and whose product contracts; None when a
        discontinuity comes first or nothing passes."""
        t = len(itinerary)
        for sigma in range(1, min(t // sustained, sigma_cap) + 1):
            if itinerary[t - sigma] is ON_DISCONTINUITY:
                return None
            start = t - sustained * sigma
            if itinerary[start : t - sigma] != itinerary[start + sigma : t]:
                continue
            tau = self.cells.tau(itinerary[t - sigma :])
            if tau < 1:
                return PeriodVerdict(ASYMPTOTICALLY_PERIODIC, start, sigma, tau, horizon)
        return None

    def trace(self, states, itinerary, verdict):
        """OrbitTrace of a classify result. Its integer states are turned
        into SimplexVectors in place, so no second copy of the orbit is
        held."""
        states[0] = self.start
        for i in range(1, len(states)):
            states[i] = _simplex(states[i])
        return OrbitTrace(states, itinerary, verdict, self.inexact)


def step(system, x, bit_cap=None):
    """One exact step of the dynamics; identity on discontinuities.

    With bit_cap set, a result whose entries outgrow the cap raises
    BitSizeExceeded instead of being returned.
    """
    for _, cell, state in _Orbit(system, x, bit_cap=bit_cap).steps(1):
        return x if cell is ON_DISCONTINUITY else _simplex(state)


EXACT_PERIODIC = "exact-periodic"
ASYMPTOTICALLY_PERIODIC = "asymptotically-periodic"
UNRESOLVED = "unresolved"


class PeriodVerdict(Record):
    """Outcome of period detection, from orbit (exact or unresolved only)
    or detect_period.

    For an exact verdict the state at transient + period equals the
    state at transient. An asymptotic verdict is a heuristic: the
    itinerary ended in a period-long cell block repeated the configured
    number of times, and tau_block, the coefficient of ergodicity of the
    block's matrix product, is below one. Were the block to repeat
    forever, the orbit would contract onto a periodic orbit at a
    geometric rate; that the itinerary keeps repeating is not checked.
    """

    __slots__ = ("status", "transient", "period", "tau_block", "horizon")

    def __init__(self, status, transient=None, period=None, tau_block=None, horizon=0):
        self.status = status
        self.transient = transient
        self.period = period
        self.tau_block = tau_block
        self.horizon = horizon


class OrbitTrace(Record):
    __slots__ = ("states", "itinerary", "verdict", "inexact")

    def __init__(self, states, itinerary, verdict, inexact=False):
        self.states = states
        self.itinerary = itinerary  # cell index per step, or ON_DISCONTINUITY
        self.verdict = verdict
        self.inexact = inexact


def _round_dyadic(x, bits):
    scale = 1 << bits
    rounded = [Fraction(round(c * scale), scale) for c in x]
    residual = 1 - sum(rounded)
    if residual != 0:
        top = max(range(len(rounded)), key=lambda i: rounded[i])
        rounded[top] += residual
    return SimplexVector(rounded)


def _mode_orbit(system, x0, horizon, mode, bit_cap, dyadic_bits=None):
    """The run behind orbit and detect_period: checks the horizon and
    maps the arithmetic mode to the run's caps. 'exact' and 'capped' are
    always accepted, 'dyadic' only from callers that pass dyadic_bits."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    modes = ("exact", "capped") if dyadic_bits is None else ("exact", "capped", "dyadic")
    if mode not in modes:
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    if mode == "dyadic" and dyadic_bits < 1:
        raise ValueError(f"dyadic precision {dyadic_bits} must be at least 1")
    if mode == "capped" and bit_cap is not None and bit_cap < 1:
        raise ValueError(f"bit cap {bit_cap} must be at least 1")
    return _Orbit(
        system,
        x0,
        bit_cap=bit_cap if mode == "capped" else None,
        dyadic_bits=dyadic_bits if mode == "dyadic" else None,
    )


def orbit(system, x0, horizon, mode="capped", bit_cap=DEFAULT_BIT_CAP, dyadic_bits=53):
    """Iterate the system, recording states and the itinerary.

    Stops early when a state recurs exactly (the orbit is then periodic)
    or on error: classify's sigma_cap=0, exact recurrences only, with
    no scan at the horizon either. mode is one of 'exact' (unbounded
    rationals), 'capped' (raise BitSizeExceeded past bit_cap) or
    'dyadic' (round each state, marking the trace inexact).
    """
    run = _mode_orbit(system, x0, horizon, mode, bit_cap, dyadic_bits)
    return run.trace(*run.classify(horizon))


def _rows_of(m):
    """Fraction rows of a StochasticMatrix, of another object with .rows
    or of a raw row list."""
    return _square(m.rows if hasattr(m, "rows") else as_fraction_matrix(m))


def coefficient_of_ergodicity(m):
    """Half the maximum l1 distance between two rows; submultiplicative
    contraction coefficient for stochastic matrices."""
    if isinstance(m, StochasticMatrix):
        return _int_tau(m.k, m.e)
    return _int_tau(*_int_matrix(_rows_of(m)))


def _support(rows):
    """Raw support of a nonnegative matrix as one n*n-bit integer in the
    digraph kernel's flat layout: bit i*n + j is set iff entry (i, j) is
    positive (no self-loops are added)."""
    bits = "".join("1" if v > 0 else "0" for row in reversed(rows) for v in reversed(row))
    return int(bits, 2)


def is_primitive(m):
    """True iff some power of the support is entrywise positive, which by
    Wielandt's bound is checked on the power (n-1)^2 + 1 of the raw boolean
    support at any size and diagonal (self-loops are not assumed, since
    adding them could turn an imprimitive support primitive)."""
    return _support_is_primitive(m.k if isinstance(m, StochasticMatrix) else _rows_of(m))


def _support_is_primitive(matrix):
    """is_primitive on matrix rows (Fractions or integers): the Wielandt
    power of the flat support (see _support) is taken by repeated
    squaring with the digraph kernel's product."""
    n = len(matrix)
    full = (1 << n) - 1
    acc, base = None, _support(matrix)
    e = (n - 1) * (n - 1) + 1
    while e:
        rows = [base >> s & full for s in range(0, n * n, n)]
        if e & 1:
            acc = base if acc is None else dg._compose(n, acc, rows)
        e >>= 1
        if e:
            base = dg._compose(n, base, rows)
    return acc == (1 << n * n) - 1


def stationary_distribution(p):
    """Exact solve of pi^T P = pi^T with unit sum; requires a unique
    solution (primitive P)."""
    rows = _rows_of(p)
    n = len(rows)
    equations = [[rows[i][j] - (1 if i == j else 0) for i in range(n)] for j in range(n)]
    sol = solve_unique(equations + [[Fraction(1)] * n], [Fraction(0)] * n + [Fraction(1)])
    if sol is None:
        raise NotPrimitive("no unique stationary distribution")
    return SimplexVector(sol)


def perron_decomposition(p):
    """Split a primitive stochastic matrix as 1 pi^T + Q.

    Returns (pi, Q rows); the infinity norm of Q never exceeds twice the
    coefficient of ergodicity of P, which is asserted.
    """
    if not is_primitive(p):
        raise NotPrimitive("matrix support is not primitive")
    pi = stationary_distribution(p)
    rows = _rows_of(p)
    q = tuple(tuple(v - pi[j] for j, v in enumerate(row)) for row in rows)
    assert mat_inf_norm(q) <= 2 * coefficient_of_ergodicity(p)
    return pi, q


# ---------------------------------------------------------------------------
# Variance-threshold systems and their Kronecker lift


def variance_of(xi, x):
    """Variance of the observable xi under distribution x, written as the
    pair sum (1/2) sum_ij (xi_i - xi_j)^2 x_i x_j."""
    xi = as_fraction_vector(xi)
    total = Fraction(0)
    for i in range(len(xi)):
        for j in range(len(xi)):
            total += (xi[i] - xi[j]) ** 2 * x[i] * x[j]
    return total / 2


def lift_state(x):
    """Outer-product distribution y_(i,j) = x_i x_j, row-major."""
    return SimplexVector(tuple(a * b for a in x for b in x))


def kronecker_variance_lift(a, b, xi, threshold):
    """Lift the rule "use A when var_x(xi) > threshold, else B" to a
    system on n^2 states with a single linear discontinuity.

    The quadratic test becomes linear in y = x (x) x: using sum(y) = 1,
    var > threshold  iff  sum_ij (w_ij - threshold + 1) y_ij > 1, with
    w_ij = (xi_i - xi_j)^2 / 2. Matrices lift to Kronecker squares.
    """
    if a.n != b.n:
        raise ValueError("matrix dimensions differ")
    xi = as_fraction_vector(xi)
    if len(xi) != a.n:
        raise ValueError("observable length does not match matrix size")
    threshold = Fraction(threshold)
    n = a.n
    # (K (x) K, E^2) is in lowest terms: each prime of E leaves some
    # entry of K undivided, and so its square in K (x) K.
    lifted_a = _stochastic(_kron_int(a.k, a.k), a.e * a.e)
    lifted_b = _stochastic(_kron_int(b.k, b.k), b.e * b.e)
    _check_stochastic(lifted_a.k, lifted_a.e, allow_zero_diagonal=False)
    _check_stochastic(lifted_b.k, lifted_b.e, allow_zero_diagonal=False)
    normal = tuple(
        (xi[i] - xi[j]) ** 2 / 2 - threshold + 1 for i in range(n) for j in range(n)
    )
    if all(v == 0 for v in normal):
        # Constant observable with threshold exactly 1: the variance test
        # is identically false, so the system is a single B-cell.
        return MISystem(n * n, (), (Cell("", lifted_b, label="low-variance"),))
    return MISystem(
        n * n,
        (Hyperplane(normal),),
        (
            Cell("+", lifted_a, label="high-variance"),
            Cell("-", lifted_b, label="low-variance"),
        ),
    )


# ---------------------------------------------------------------------------
# Config text format and trace output


def _config_lines(text):
    """(line number, stripped line) of every line of a config that is
    neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_matrix(n, tokens, lines, opened, allow_zero_diagonal):
    """StochasticMatrix of the n x n entries that start with tokens, on
    the line numbered opened, and continue over the next lines of lines,
    read straight into its integer form; each distinct token is parsed
    once. A bad or extra entry is reported on its own line, missing
    entries on the opening line; a matrix that is not stochastic raises
    ValueError for the caller."""
    entries = []
    ratios = {}  # token -> (p, q)
    rest = ((lineno, line.split()) for lineno, line in lines)
    for lineno, tokens in chain([(opened, tokens)], rest):
        try:
            for token in tokens:
                if token not in ratios:
                    ratios[token] = parse_ratio(token)
            entries += tokens
            if len(entries) > n * n:
                raise ValueError("too many matrix entries")
        except ValueError as exc:
            raise ConfigFormatError(str(exc), lineno) from exc
        if len(entries) == n * n:
            e = math.lcm(*(q for _, q in ratios.values()))
            scaled = {token: p * (e // q) for token, (p, q) in ratios.items()}
            flat = list(map(scaled.__getitem__, entries))
            k = tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))
            _check_stochastic(k, e, allow_zero_diagonal)
            return _stochastic(k, e)
    raise ConfigFormatError("matrix entries missing", opened)


def _once(given, key, lineno):
    """Note that key was given on line lineno; a key given twice is
    refused."""
    if key in given:
        raise ValueError(f"{key} given twice")
    given[key] = lineno


def _read_n(line):
    """State count of an `n=` line, which must be at least one."""
    n = int(line[2:])
    if n < 1:
        raise ValueError(f"state count {n} must be at least 1")
    return n


def read_mis_config(text):
    """Parse the system config format.

    Lines: n=<k>, omega=<p/q>, delta=<p/q> and unchecked=<0|1>, each
    at most once, one `hyperplane: a_1 .. a_n` per discontinuity, then
    `cell: <pattern> matrix: <n*n rationals>` entries (the matrix may
    continue on following lines). A lone `.` stands for the empty
    pattern of a hyperplane-free system. Matrices must carry strictly
    positive diagonals unless the file opts out with `unchecked=1`
    (needed by constructions whose reset rows empty a vertex). Errors
    name the line they occur on, except a missing `n=`. Delta and each
    cell are checked after the last line, against the final omega,
    hyperplanes and unchecked=, and reported on their own line.
    """
    n = None
    omega, delta, unchecked = Fraction(1, 4), Fraction(0), False  # MISystem's defaults
    given = {}
    hyperplanes = []
    cells = []  # (line number, Cell)
    lines = _config_lines(text)
    for lineno, line in lines:
        try:
            if line.startswith("n="):
                _once(given, "n=", lineno)
                n = _read_n(line)
            elif line.startswith("omega="):
                _once(given, "omega=", lineno)
                omega = parse_rational(line[6:])
                _check_omega(omega)
            elif line.startswith("delta="):
                _once(given, "delta=", lineno)
                delta = parse_rational(line[6:])
            elif line.startswith("unchecked="):
                _once(given, "unchecked=", lineno)
                flag = line[10:].strip()
                if flag not in ("0", "1"):
                    raise ValueError(f"unchecked= must be 0 or 1, got {flag!r}")
                unchecked = flag == "1"
            elif line.startswith("hyperplane:"):
                if n is None:
                    raise ValueError("hyperplane before n=")
                coeffs = [parse_rational(tok) for tok in line[len("hyperplane:"):].split()]
                if len(coeffs) != n:
                    raise ValueError(f"hyperplane needs {n} coefficients, got {len(coeffs)}")
                hyperplanes.append(Hyperplane(tuple(coeffs)))
            elif line.startswith("cell:"):
                if n is None:
                    raise ValueError("cell before n=")
                rest = line[len("cell:"):].split()
                if not rest:
                    raise ValueError("cell line needs a sign pattern")
                pattern = "" if rest[0] == "." else rest[0]
                if len(rest) < 2 or rest[1] != "matrix:":
                    raise ValueError("expected 'matrix:' after the pattern")
                matrix = _read_matrix(n, rest[2:], lines, lineno, allow_zero_diagonal=True)
                cells.append((lineno, Cell(pattern, matrix)))
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except ConfigFormatError:
            raise
        except ValueError as exc:
            raise ConfigFormatError(str(exc), lineno) from exc
    if n is None:
        raise ValueError("missing n=")
    try:
        _check_delta(delta, omega)
    except ValueError as exc:
        raise ConfigFormatError(str(exc), given["delta="]) from exc
    for lineno, cell in cells:
        try:
            _check_pattern(cell.pattern, len(hyperplanes))
            if not unchecked and not cell.matrix.has_positive_diagonal():
                raise ValueError(
                    "cell matrix has a zero diagonal entry (set unchecked=1 to allow)"
                )
        except ValueError as exc:
            raise ConfigFormatError(str(exc), lineno) from exc
    return MISystem(n, hyperplanes, [cell for _, cell in cells], delta=delta, omega=omega)


def read_lift_config(text):
    """Parse a variance-threshold pair for kronecker_variance_lift.

    Lines: n=<k>, `xi: <n rationals>`, `threshold: <p/q>`, then
    `A: <n*n rationals>` and `B: <n*n rationals>`, each exactly once
    (each matrix may continue on following lines). Returns
    (A, B, xi, threshold).
    """
    n = xi = threshold = None
    given = {}
    matrices = {}
    lines = _config_lines(text)
    for lineno, line in lines:
        try:
            if line.startswith("n="):
                _once(given, "n=", lineno)
                n = _read_n(line)
            elif line.startswith("xi:"):
                _once(given, "xi:", lineno)
                xi = [parse_rational(tok) for tok in line[3:].split()]
            elif line.startswith("threshold:"):
                _once(given, "threshold:", lineno)
                threshold = parse_rational(line[len("threshold:"):].strip())
            elif line.startswith(("A:", "B:")):
                _once(given, line[:2], lineno)
                if n is None:
                    raise ValueError("matrix before n=")
                matrices[line[0]] = _read_matrix(
                    n, line[2:].split(), lines, lineno, allow_zero_diagonal=False
                )
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except ConfigFormatError:
            raise
        except ValueError as exc:
            raise ConfigFormatError(str(exc), lineno) from exc
    if set(given) != {"n=", "xi:", "threshold:", "A:", "B:"}:
        raise ValueError("lift input needs n=, xi:, threshold:, A: and B:")
    if len(xi) != n:
        raise ConfigFormatError(f"xi has {len(xi)} entries for n={n}", given["xi:"])
    return matrices["A"], matrices["B"], xi, threshold


def write_mis_config(system):
    lines = [
        f"n={system.n}",
        f"omega={format_rational(system.omega)}",
        f"delta={format_rational(system.delta)}",
    ]
    if any(not cell.matrix.has_positive_diagonal() for cell in system.cells):
        lines.append("unchecked=1")
    for h in system.hyperplanes:
        lines.append("hyperplane: " + " ".join(format_rational(v) for v in h.normal))
    for cell in system.cells:
        pattern = cell.pattern if cell.pattern else "."
        lines.append(f"cell: {pattern} matrix:")
        # Each distinct entry is formatted once: matrices repeat entries,
        # Kronecker squares most of all (K_ij K_kl = K_kl K_ij).
        e, k = cell.matrix.e, cell.matrix.k
        text = {v: format_ratio(v, e) for v in set(chain.from_iterable(k))}
        for row in k:
            lines.append("  " + " ".join(map(text.__getitem__, row)))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace, out, exact=True):
    """Write a trace as CSV: step, cell, then one column per coordinate.

    Each row pairs a state with the cell applied from it; the final
    state has an empty cell column. Discontinuity steps show 'D'.
    """
    n = len(trace.states[0])
    header = "step,cell," + ",".join(f"x_{i + 1}" for i in range(n))
    out.write(header + "\n")
    for t, state in enumerate(trace.states):
        if t < len(trace.itinerary):
            cell = trace.itinerary[t]
            cell_txt = "D" if cell is ON_DISCONTINUITY else str(cell)
        else:
            cell_txt = ""
        if exact:
            coords = ",".join(format_rational(c) for c in state)
        else:
            coords = ",".join(repr(float(c)) for c in state)
        out.write(f"{t},{cell_txt},{coords}\n")


def sample_simplex(rng, n, denominator=1024):
    """Uniform-ish exact rational simplex point with a fixed denominator."""
    if n < 1:
        raise ValueError(f"state count {n} must be at least 1")
    if denominator < 1:
        raise ValueError(f"denominator {denominator} must be at least 1")
    cuts = sorted(rng.randint(0, denominator) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(denominator - prev)
    return SimplexVector(Fraction(p, denominator) for p in parts)

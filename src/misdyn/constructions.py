"""Generator constructions: the stacked-gadget slow clock and the
five-state baker-style chaotic system.

The clock stacks three-vertex gadgets on a two-vertex base of period 4.
A gadget halves its x mass into y each step; once per cycle of the
subsystem below it (detected by a hyperplane on that subsystem's lead
coordinate) it either pours x into the accumulator z and returns y to x,
or, when z has crossed half the gadget's mass, resets to x. Each stacked
level multiplies the period by an exponential factor, which is what
makes the composite period grow so violently with the state count.

Probability mass is split equally across the base and the gadgets, and
all thresholds are scaled by the group mass. Thresholds are placed
strictly between adjacent orbit levels of the coordinate they test:
putting them exactly on an orbit value would park the state on a
discontinuity, where the dynamics is the identity, and freeze the clock.
"""

import itertools
from fractions import Fraction

from ._record import FrozenRecord
from .analysis import detect_period
from .system import EXACT_PERIODIC, Cell, Hyperplane, MISystem, SimplexVector, StochasticMatrix

BASE_PERIOD = 4

_HALF = Fraction(1, 2)

_BASE_HALVE = ((_HALF, _HALF), (0, 1))
_BASE_RESET = ((1, 0), (1, 0))
_GADGET_HALVE = ((_HALF, _HALF, 0), (0, 1, 0), (0, 0, 1))
_GADGET_TRANSFER = ((0, 0, 1), (1, 0, 0), (0, 0, 1))
_GADGET_RESET = ((1, 0, 0), (1, 0, 0), (1, 0, 0))


class ClockBuildError(ValueError):
    pass


class DegenerateCoordinate(ValueError):
    pass


class ClockSpec(FrozenRecord):
    """Layout of a stacked clock: the base pair occupies vertices 0..1,
    gadget k (1-based) the three vertices starting at gadget_start(k).
    Every group carries mass 1/(levels + 1)."""

    __slots__ = ("levels", "base_period", "n", "group_mass")

    def __init__(self, levels, base_period, n, group_mass):
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "base_period", base_period)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "group_mass", group_mass)

    def gadget_start(self, k):
        return 2 + 3 * (k - 1)

    def z_index(self, k):
        return self.gadget_start(k) + 2


def clock_spec(levels):
    """Layout of a clock of 0 to 3 levels. A fourth level's detector
    needs the level-2 clock's period, about 2.6e9 steps (z2's gain per
    28-step ring starts near 2.5e-9 and shrinks by 1 - 2^-27 each ring,
    so it resets past one half after about 9.3e7 rings), which exact
    stepping cannot reach, so 4 levels and more are refused here."""
    if levels < 0:
        raise ClockBuildError("levels must be nonnegative")
    if levels > 3:
        raise ClockBuildError(
            f"{levels} levels need the level-2 period (about 2.6e9 steps), "
            "out of reach of exact stepping; at most 3 levels are buildable"
        )
    return ClockSpec(levels, BASE_PERIOD, 2 + 3 * levels, Fraction(1, levels + 1))


def _block_diagonal(blocks, n):
    rows = []
    offset = 0
    grid = [[Fraction(0)] * n for _ in range(n)]
    for block in blocks:
        size = len(block)
        for i in range(size):
            for j in range(size):
                grid[offset + i][offset + j] = Fraction(block[i][j])
        offset += size
    return StochasticMatrix(grid, allow_zero_diagonal=True)


def _axis_hyperplane(n, index, threshold):
    normal = [Fraction(0)] * n
    normal[index] = Fraction(1) / threshold
    return Hyperplane(tuple(normal))


def _measure_subsystem_periods(levels, inner_horizon):
    """Exact periods of the stacked subsystems 0..levels-2, needed to
    place the detector thresholds of gadgets 2 and above."""
    periods = [BASE_PERIOD]
    for s in range(1, levels - 1):
        system, x0 = build_clock(s, inner_horizon=inner_horizon)
        verdict = detect_period(system, x0, inner_horizon, sigma_cap=0)
        if verdict.status != EXACT_PERIODIC:
            raise ClockBuildError(
                f"cannot place level-{s + 2} detector: the level-{s} period "
                f"was not resolved within {inner_horizon} steps"
            )
        periods.append(verdict.period)
    return periods


def build_clock(levels, inner_horizon=4096):
    """Stacked clock system plus its initial distribution.

    The reset rows of the gadget matrices necessarily empty their
    vertices, so the matrices carry zero diagonal entries. More than 3
    levels (see clock_spec), or an inner_horizon too short for the
    level-1 period that places the level-3 detector, raise
    ClockBuildError.
    """
    spec = clock_spec(levels)
    n, m = spec.n, spec.group_mass
    hyperplanes = []
    # Base halving test: the lead coordinate walks m, m/2, m/4, m/8 and
    # resets from the last; 3m/16 separates m/8 from m/4.
    hyperplanes.append(_axis_hyperplane(n, 0, Fraction(3, 16) * m))
    inner_periods = _measure_subsystem_periods(levels, inner_horizon) if levels >= 2 else [BASE_PERIOD]
    for k in range(1, levels + 1):
        if k == 1:
            # Gadget 1 fires when the base is at full lead mass; 3m/4
            # separates m/2 from m.
            ring = _axis_hyperplane(n, 0, Fraction(3, 4) * m)
        else:
            # Gadget k fires when gadget k-1 has just reset (its x back at
            # the full group mass). With p the period of the subsystem
            # below gadget k-1, steady sweeps keep x at or under
            # m * (1 - 2^(1-p)). The one transient transfer ends gadget
            # k-1's first sweep, which halves x from its m/2 start until
            # the level below first fires: after p - 1 steps for gadget 1
            # (the base starts one step past its lead state), reaching
            # m * (1 - 2^-p), and after p steps for gadget 2 (gadget 1
            # first resets at step p), reaching m * (1 - 2^-(p+1)). One more
            # halving, m * (1 - 2^-(p+1)) for k = 2 and m * (1 - 2^-(p+2))
            # above, clears both without touching any orbit value.
            p = inner_periods[k - 2]
            exponent = p + 1 if k == 2 else p + 2
            ring = _axis_hyperplane(
                n, spec.gadget_start(k - 1), m * (1 - Fraction(1, 2**exponent))
            )
        hyperplanes.append(ring)
        hyperplanes.append(_axis_hyperplane(n, spec.z_index(k), m / 2))
    cells = []
    gadget_modes = (
        ("-*", _GADGET_HALVE, "halve"),
        ("+-", _GADGET_TRANSFER, "transfer"),
        ("++", _GADGET_RESET, "reset"),
    )
    base_modes = (("+", _BASE_HALVE, "halve"), ("-", _BASE_RESET, "reset"))
    # One cell per base mode and choice of gadget modes, gadget 1 varying
    # slowest.
    for base_sub, base_block, base_name in base_modes:
        for gadgets in itertools.product(gadget_modes, repeat=levels):
            pattern = base_sub + "".join(sub for sub, _, _ in gadgets)
            blocks = [base_block] + [block for _, block, _ in gadgets]
            labels = [base_name] + [f"g{k}:{name}" for k, (_, _, name) in enumerate(gadgets, 1)]
            cells.append(Cell(pattern, _block_diagonal(blocks, n), label=",".join(labels)))
    omega = Fraction(1, 4) if levels == 0 else (
        Fraction(1, 64) if levels == 1 else Fraction(1, 2**64)
    )
    system = MISystem(n, hyperplanes, cells, delta=0, omega=omega)
    coords = [Fraction(0)] * n
    if levels == 0:
        coords[0] = m
    else:
        # Base starts one step past its lead state and the intermediate
        # gadgets one halving in, so no detector fires before the gadget
        # above it has completed a full halving run. The outermost gadget
        # starts at full mass (nothing watches it).
        coords[0] = m / 2
        coords[1] = m / 2
        for k in range(1, levels):
            coords[spec.gadget_start(k)] = m / 2
            coords[spec.gadget_start(k) + 1] = m / 2
        coords[spec.gadget_start(levels)] = m
    return system, SimplexVector(coords)


def measure_clock_period(levels, horizon, **detect_kwargs):
    """Period verdict for the stacked clock at the given horizon, by
    exact recurrences only (sigma_cap=0, no scan at the horizon either)
    unless detect_kwargs sets sigma_cap."""
    system, x0 = build_clock(levels)
    detect_kwargs.setdefault("sigma_cap", 0)
    return detect_period(system, x0, horizon, **detect_kwargs)


# ---------------------------------------------------------------------------
# The five-state chaotic system

BAKER_A = StochasticMatrix(
    [
        [Fraction(2, 3), Fraction(1, 3), 0, 0, 0],
        [0, Fraction(1, 3), Fraction(2, 3), 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, Fraction(2, 3), Fraction(1, 3)],
        [0, 0, 0, 0, 1],
    ]
)

BAKER_B = StochasticMatrix(
    [
        [Fraction(1, 3), 0, Fraction(2, 3), 0, 0],
        [Fraction(1, 3), Fraction(2, 3), 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, Fraction(2, 3), Fraction(1, 3)],
        [0, 0, 0, 0, 1],
    ]
)


def build_baker(delta=0):
    """Five-state system switching on the sign of x1 + x2 - x4.

    Using the unit coordinate sum, that test is the hyperplane
    2x1 + 2x2 + x3 + x5 = 1 + delta. Returns the system and a sampler of
    valid starting points on the invariant wedge with x4 = 1/4, x5 = 0.
    """
    normal = (2, 2, 1, 0, 1)
    system = MISystem(
        5,
        (Hyperplane(normal),),
        (Cell("+", BAKER_A, label="A"), Cell("-", BAKER_B, label="B")),
        delta=delta,
        omega=Fraction(1, 8),
    )

    def sampler(rng, denominator=64):
        quarter = Fraction(1, 4)
        x1 = Fraction(rng.randint(1, denominator), 8 * denominator)
        x2 = Fraction(1, 8) + Fraction(rng.randint(0, denominator - 1), 8 * denominator)
        x3 = 1 - x1 - x2 - quarter
        return SimplexVector((x1, x2, x3, quarter, Fraction(0)))

    return system, sampler


def in_invariant_wedge(x):
    """Membership in the wedge 0 < x1 <= x4/2 <= x2 < x4."""
    return 0 < x[0] <= x[3] / 2 <= x[1] < x[3]


def baker_coordinates(x):
    """Projective coordinates (y, z) of a state.

    y = (2x2 - x4) / (2x1 - x4) is nonpositive on the invariant wedge and
    z = (y + 1) / (y - 1) lies in [-1, 1); one system step advances z by
    the piecewise-doubling map z -> 2z + 1 (z <= 0) / 2z - 1 (z > 0).
    """
    denom = 2 * x[0] - x[3]
    if denom == 0:
        raise DegenerateCoordinate("2*x1 equals x4")
    y = (2 * x[1] - x[3]) / denom
    if y == 1:
        raise DegenerateCoordinate("y equals 1")
    return y, (y + 1) / (y - 1)

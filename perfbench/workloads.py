"""Seeded inputs, timed jobs and output checks for the four workloads.

Every workload turns a seed into one fixed round of jobs. A job is one
closed-loop call sequence into misdyn's public API; the runner repeats
the round until the measuring time is used up. Library functions are
looked up on their modules at call time, so the traced run sees the
wrappers that spans.py installs.

The exact checks here are written with plain loops over Fraction and
int and do not call the code they check.
"""

import hashlib
import io
import random
import time
from fractions import Fraction

UNITS = {
    "parse": "graphs appended",
    "orbit": "orbit steps",
    "sweep": "sweep cells",
    "spectral": "solver calls",
}

# Sizes per profile. "full" is what the timed runs use; "smoke" is a
# tiny round that keeps the benchmark's own test fast.
PROFILES = {
    "full": {
        # (n, edge probability numerator k for p = k/n, graphs per sequence)
        "parse": {"sequences": [(64, 1, 60), (64, 2, 60), (16, 1, 120), (16, 2, 120)]},
        # baker starts x steps, clock levels=2 steps
        "orbit": {"baker_starts": 3, "baker_steps": 1000, "clock_steps": 1000},
        "sweep": {"baker_grid": 2, "baker_starts": 2, "baker_horizon": 64,
                  "random_shapes": [(3, 1), (4, 2), (5, 3), (4, 1), (5, 2), (3, 2)],
                  "random_grid": 4, "random_starts": 2, "random_horizon": 300,
                  "clock_grid": 4, "clock_horizon": 200},
        "spectral": {"lift_sizes": [4, 5, 6], "property_u_runs": 10, "eta_systems": 2},
    },
    "smoke": {
        "parse": {"sequences": [(64, 1, 6), (16, 2, 10)]},
        "orbit": {"baker_starts": 1, "baker_steps": 40, "clock_steps": 40},
        "sweep": {"baker_grid": 1, "baker_starts": 1, "baker_horizon": 32,
                  "random_shapes": [(3, 1)],
                  "random_grid": 2, "random_starts": 1, "random_horizon": 100,
                  "clock_grid": 1, "clock_horizon": 100},
        "spectral": {"lift_sizes": [3], "property_u_runs": 2, "eta_systems": 1},
    },
}


class CheckFailed(Exception):
    """An output failed an exact check or did not match its digest."""


class Job:
    """One timed unit of closed-loop work.

    run(samples) makes the library calls and returns their raw result;
    jobs that time their own calls (the online appends) add latencies
    in seconds to samples. render turns the result into the canonical
    text that is digested; verify raises CheckFailed on a wrong result.
    """

    __slots__ = ("key", "units", "run", "render", "verify", "times_calls")

    def __init__(self, key, units, run, render, verify, times_calls=False):
        self.key = key
        self.units = units
        self.run = run
        self.render = render
        self.verify = verify
        self.times_calls = times_calls


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rng(workload, seed, stream):
    return random.Random(f"misdyn-bench:{workload}:{seed}:{stream}")


def _fmt(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# parse: online temporal parsing of random digraph sequences


def sequence_text(rng, n, p, length):
    """A random sequence in the graph-sequence text format (1-based)."""
    blocks = []
    for _ in range(length):
        lines = [f"n={n}"]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and rng.random() < p:
                    lines.append(f"{i} {j}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _fold_rows(graphs):
    """Rows of the left-fold product g1*g2*...*gk, by bit propagation."""
    acc = list(graphs[0].rows)
    for g in graphs[1:]:
        nxt = []
        for r in acc:
            m = 0
            for z in range(g.n):
                if r >> z & 1:
                    m |= g.rows[z]
            nxt.append(m)
        acc = nxt
    return tuple(acc)


def _mask(block):
    return format(sum(1 << v for v in block), "x")


def _parse_job(lib, key, graphs):
    def run(samples):
        clock = time.perf_counter
        tree = lib.parsing.ParseTree()
        for g in graphs:
            t0 = clock()
            tree.append(g)
            samples.append(clock() - t0)
        deco = lib.parsing.decorate_topological(tree)
        back = lib.parsing.backward_parse(graphs)
        return tree, deco, back, tree.dump(), back.dump()

    def render(result):
        _, deco, _, dump, back_dump = result
        lines = [dump, "#productions"]
        for prod in deco.productions:
            if prod is None:
                lines.append("-")
            else:
                lines.append(";".join(
                    _mask(v) + ">" + ",".join(_mask(w) for w in ws) for v, ws in prod
                ))
        lines.append("#backward")
        lines.append(back_dump)
        return "\n".join(lines)

    def verify(result):
        tree, deco, back, dump, back_dump = result
        length = len(graphs)
        _require(tree.length == length and back.length == length, "leaf count")
        _require(dump.count("leaf ") == length, "dump leaf lines")
        _require(back_dump.count("leaf ") == length, "backward dump leaf lines")
        _require(len(deco.nodes) == len(dump.splitlines()), "decoration node count")
        _require(tree.root.cumulant.rows == _fold_rows(graphs), "forward cumulant")
        _require(back.root.cumulant.rows == _fold_rows(graphs[::-1]), "backward cumulant")

    return Job(key, len(graphs), run, render, verify, times_calls=True)


def setup_parse(lib, seed, sizes):
    jobs = []
    for idx, (n, k, length) in enumerate(sizes["sequences"]):
        text = sequence_text(_rng("parse", seed, idx), n, k / n, length)
        graphs = lib.digraph.read_sequence_text(text)
        jobs.append(_parse_job(lib, f"seq{idx}-n{n}-p{k}/{n}-len{length}", graphs))
    return jobs


# ---------------------------------------------------------------------------
# Plain-loop reference stepper shared by the orbit and sweep checks


def reference_step(system, delta, x):
    """(cell index or None, next state) by plain Fraction loops."""
    threshold = 1 + delta
    signs = []
    for h in system.hyperplanes:
        v = Fraction(0)
        for a, xi in zip(h.normal, x):
            v += a * xi
        if v == threshold:
            return None, x
        signs.append(v > threshold)
    for idx, cell in enumerate(system.cells):
        if all(p == "*" or (p == "+") == s for p, s in zip(cell.pattern, signs)):
            rows = cell.matrix.rows
            nxt = []
            for j in range(len(x)):
                v = Fraction(0)
                for i in range(len(x)):
                    v += x[i] * rows[i][j]
                nxt.append(v)
            return idx, tuple(nxt)
    raise CheckFailed("reference stepper found no cell")


# ---------------------------------------------------------------------------
# orbit: long capped-mode orbits of the baker system and the level-2 clock


def _orbit_job(lib, key, system, x0, steps, check_rng):
    picks = sorted(check_rng.sample(range(steps), min(8, steps)))

    def run(samples):
        return lib.system.orbit(system, x0, steps, mode="capped")

    def render(trace):
        itinerary = "".join("D" if c is None else format(c, "x") + "." for c in trace.itinerary)
        final = ",".join(_fmt(c) for c in trace.states[-1])
        return f"itinerary:{itinerary}\nfinal:{final}"

    def verify(trace):
        _require(len(trace.itinerary) == steps, "orbit stopped early")
        _require(len(trace.states) == steps + 1, "state count")
        _require(tuple(trace.states[0]) == tuple(x0), "start state")
        for t in picks + [steps - 1]:
            cell, nxt = reference_step(system, system.delta, trace.states[t])
            _require(cell == trace.itinerary[t], f"cell at step {t}")
            _require(tuple(nxt) == tuple(trace.states[t + 1]), f"state at step {t + 1}")

    return Job(key, steps, run, render, verify)


def baker_starts(lib, sampler, rng, count):
    """Seeded wedge starts whose projective coordinate z is not dyadic.

    One step maps z to 2z + 1 or 2z - 1, so a dyadic z reaches z = 0,
    which lies on the discontinuity, or the fixed point z = -1 within a
    few steps, and the orbit freezes or idles. An odd factor in z's
    denominator survives every step. Starts on the wedge edge
    2*x1 = x4 have no z and are skipped too.
    """
    starts = []
    while len(starts) < count:
        x0 = sampler(rng, denominator=63)
        try:
            z = lib.constructions.baker_coordinates(x0)[1]
        except lib.constructions.DegenerateCoordinate:
            continue
        if z.denominator & -z.denominator != z.denominator:
            starts.append(x0)
    return starts


def setup_orbit(lib, seed, sizes):
    jobs = []
    baker, sampler = lib.constructions.build_baker()
    starts = baker_starts(lib, sampler, _rng("orbit", seed, "starts"), sizes["baker_starts"])
    for k, x0 in enumerate(starts):
        jobs.append(_orbit_job(lib, f"baker{k}", baker, x0, sizes["baker_steps"],
                               _rng("orbit", seed, f"check{k}")))
    clock, x0 = lib.constructions.build_clock(2)
    jobs.append(_orbit_job(lib, "clock2", clock, x0, sizes["clock_steps"],
                           _rng("orbit", seed, "check-clock")))
    return jobs


# ---------------------------------------------------------------------------
# sweep: whole-grid delta sweeps (baker, random irreducible, level-1 clock)


def system_text(rng, n, planes, denominator=12):
    """Config text of a random system with around-one hyperplane normals
    and dense, positive-diagonal cell matrices."""
    lines = [f"n={n}", "omega=1/8", "delta=0"]
    for _ in range(planes):
        coeffs = [Fraction(8 + rng.randint(-3, 3), 8) for _ in range(n)]
        lines.append("hyperplane: " + " ".join(_fmt(c) for c in coeffs))
    for bits in range(1 << planes):
        pattern = "".join("+" if bits >> k & 1 else "-" for k in range(planes))
        lines.append(f"cell: {pattern} matrix:")
        for _ in range(n):
            weights = [rng.randint(1, denominator) for _ in range(n)]
            total = sum(weights)
            lines.append("  " + " ".join(_fmt(Fraction(w, total)) for w in weights))
    return "\n".join(lines) + "\n"


def _sweep_job(lib, key, system, grid, starts, horizon):
    def run(samples):
        return lib.analysis.delta_sweep(system, grid, starts, horizon)

    def render(report):
        out = io.StringIO()
        report.write_csv(out)
        return out.getvalue()

    def verify(report):
        _require(len(report.entries) == len(grid) * len(starts), "sweep cell count")
        for e in report.entries:
            if e.error is not None:
                continue
            v = e.verdict
            if v.status == "exact-periodic":
                x = tuple(starts[e.x0_index])
                states = [x]
                for _ in range(v.transient + v.period):
                    x = reference_step(system, e.delta, x)[1]
                    states.append(x)
                _require(states[v.transient] == states[-1], "exact period re-check")
            elif v.status == "asymptotically-periodic":
                _require(0 <= v.tau_block < 1, "asymptotic verdict without contraction")

    return Job(key, len(grid) * len(starts), run, render, verify)


def setup_sweep(lib, seed, sizes):
    """The baker grid uses the same starts at every seed: its scan cost
    follows the chaotic itinerary of each start, varies by a factor of
    1.6 between seeds and dominates the round, so seeded starts would
    make ops_per_s a figure of the seed. The random systems carry the
    seed."""
    jobs = []
    baker, sampler = lib.constructions.build_baker()
    starts = baker_starts(lib, sampler, _rng("sweep", 0, "baker"), sizes["baker_starts"])
    grid = lib.analysis.interior_grid(baker.omega, sizes["baker_grid"])
    jobs.append(_sweep_job(lib, "baker", baker, grid, starts, sizes["baker_horizon"]))
    for idx, (n, planes) in enumerate(sizes["random_shapes"]):
        rng = _rng("sweep", seed, f"random{idx}")
        system = lib.system.read_mis_config(system_text(rng, n, planes))
        starts = [lib.system.sample_simplex(rng, n) for _ in range(sizes["random_starts"])]
        grid = lib.analysis.interior_grid(system.omega, sizes["random_grid"])
        jobs.append(_sweep_job(lib, f"random{idx}-n{n}-h{planes}", system, grid, starts,
                               sizes["random_horizon"]))
    clock, x0 = lib.constructions.build_clock(1)
    grid = lib.analysis.interior_grid(clock.omega, sizes["clock_grid"])
    jobs.append(_sweep_job(lib, "clock1", clock, grid, [x0], sizes["clock_horizon"]))
    return jobs


# ---------------------------------------------------------------------------
# spectral: exact solves on Kronecker-lifted cells, certificates, eta


def composition_rows(rng, n, denominator=12):
    """Rows k/denominator with a positive diagonal and a Hamiltonian
    cycle in the support, so the matrix is primitive."""
    rows = []
    for i in range(n):
        weights = [0] * n
        weights[i] = 1
        weights[(i + 1) % n] += 1
        for _ in range(denominator - 2):
            weights[rng.randrange(n)] += 1
        rows.append([Fraction(w, denominator) for w in weights])
    return rows


def _check_stationary(rows, pi):
    n = len(rows)
    _require(len(pi) == n and sum(pi) == 1 and min(pi) >= 0, "pi is not a distribution")
    for j in range(n):
        v = Fraction(0)
        for i in range(n):
            v += pi[i] * rows[i][j]
        _require(v == pi[j], "pi^T P != pi^T")


def _strongly_connected(rows):
    """Strong connectivity of the support, by search from every vertex.
    With the positive diagonal composition_rows guarantees, this is
    primitivity."""
    n = len(rows)
    for src in range(n):
        seen = {src}
        todo = [src]
        while todo:
            i = todo.pop()
            for j in range(n):
                if rows[i][j] > 0 and j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) != n:
            return False
    return True


def _solver_jobs(lib, key, matrix):
    rows = matrix.rows

    def stationary(samples):
        return lib.system.stationary_distribution(matrix)

    def render_pi(pi):
        return ",".join(_fmt(c) for c in pi)

    def check_pi(pi):
        _check_stationary(rows, pi)

    def perron(samples):
        return lib.system.perron_decomposition(matrix)

    def render_perron(result):
        pi, q = result
        return render_pi(pi) + "\n" + "\n".join(",".join(_fmt(v) for v in r) for r in q)

    def check_perron(result):
        pi, q = result
        _check_stationary(rows, pi)
        for i, r in enumerate(q):
            for j, v in enumerate(r):
                _require(v == rows[i][j] - pi[j], "Q != P - 1 pi^T")

    def primitive(samples):
        return lib.system.is_primitive(matrix)

    def check_primitive(flag):
        _require(flag == _strongly_connected(rows), "primitivity")

    return [
        Job(f"{key}-stationary", 1, stationary, render_pi, check_pi),
        Job(f"{key}-perron", 1, perron, render_perron, check_perron),
        Job(f"{key}-primitive", 1, primitive, str, check_primitive),
    ]


def _property_u_job(lib, key, matrices, theta, a):
    def run(samples):
        try:
            return lib.analysis.property_u_certificate(matrices, theta, a)
        except lib.analysis.PropertyUFailure:
            return None

    def render(u):
        return "none" if u is None else ",".join(_fmt(c) for c in u)

    def verify(u):
        if u is None:
            return
        _require(sum(u) == 1, "certificate does not sum to one")
        n = len(a)
        columns = []
        acc = None
        for k, m in enumerate(matrices, start=1):
            rows = m.rows
            if acc is None:
                acc = [list(r) for r in rows]
            else:
                acc = [[sum((acc[i][l] * rows[l][j] for l in range(n)), Fraction(0))
                        for j in range(n)] for i in range(n)]
            if k in theta:
                columns.append([sum((acc[i][j] * a[j] for j in range(n)), Fraction(0))
                                for i in range(n)])
        values = {sum((u[c] * columns[c][r] for c in range(len(theta))), Fraction(0))
                  for r in range(n)}
        _require(len(values) == 1, "M^(theta) u is not a constant vector")

    return Job(key, 1, run, render, verify)


def _eta_job(lib, key, system, seed_text):
    def run(samples):
        return lib.analysis.estimate_eta(system, horizon=40, sample_budget=4,
                                         rng=random.Random(seed_text))

    def verify(eta):
        _require(eta is None or 1 <= eta <= 40, "eta outside the horizon")

    return Job(key, 1, run, str, verify)


def setup_spectral(lib, seed, sizes):
    system = lib.system
    jobs = []
    for idx, n in enumerate(sizes["lift_sizes"]):
        rng = _rng("spectral", seed, f"lift{idx}")
        a = system.StochasticMatrix(composition_rows(rng, n))
        b = system.StochasticMatrix(composition_rows(rng, n))
        xi = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n)]
        threshold = Fraction(rng.randint(1, 10), 30)
        lifted = system.kronecker_variance_lift(a, b, xi, threshold)
        # Round-trip through the config format, as `misdyn lift` output is
        # read back by `misdyn simulate`.
        lifted = system.read_mis_config(system.write_mis_config(lifted))
        for c, cell in enumerate(lifted.cells):
            jobs.extend(_solver_jobs(lib, f"lift{idx}-n{n * n}-cell{c}", cell.matrix))
    for idx in range(sizes["property_u_runs"]):
        rng = _rng("spectral", seed, f"propu{idx}")
        mats = [system.StochasticMatrix(composition_rows(rng, 3)) for _ in range(8)]
        theta = sorted(rng.sample(range(1, 9), 4))
        a = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3))
        jobs.append(_property_u_job(lib, f"propu{idx}", mats, theta, a))
    for idx in range(sizes["eta_systems"]):
        rng = _rng("spectral", seed, f"eta{idx}")
        sys_ = system.read_mis_config(system_text(rng, 4, 1))
        jobs.append(_eta_job(lib, f"eta{idx}", sys_, f"eta:{seed}:{idx}"))
    return jobs


# ---------------------------------------------------------------------------
# Calibration: fixed kernels, owned by the benchmark, that gauge the host
#
# The host is shared: for stretches of seconds to minutes the same code
# runs up to twice as slowly, on every job alike. The runner times the
# workload's kernel right after each job and each set-up and reports
# times as multiples of it, so those stretches cancel. Each kernel does
# the kind of work its workload spends its time on; neither calls misdyn,
# so a change to misdyn moves the job times and not the kernel's.

_CAL = random.Random("misdyn-bench:calibration")
_CAL_MATRIX = [[Fraction(_CAL.randint(1, 9), 13) for _ in range(5)] for _ in range(5)]
_CAL_ROWS = [[sum(1 << j for j in range(64) if _CAL.random() < 2 / 64) for _ in range(64)]
             for _ in range(10)]


def rational_kernel():
    """Forty exact vector-matrix steps with a fixed 5x5 Fraction matrix."""
    x = [Fraction(1, 5)] * 5
    for _ in range(40):
        x = [sum((x[i] * _CAL_MATRIX[i][j] for i in range(5)), Fraction(0)) for j in range(5)]
    return x


def bitset_kernel():
    """Left-fold product of ten fixed 64-vertex digraphs by bit propagation."""
    acc = [1 << i for i in range(64)]
    for rows in _CAL_ROWS:
        nxt = []
        for r in acc:
            m = 0
            for z in range(64):
                if r >> z & 1:
                    m |= rows[z]
            nxt.append(m)
        acc = nxt
    return acc


# Workload -> (kernel, its time in seconds on the reference host). The
# reference times are the kernels' usual times on a shared 2-vCPU x86-64
# virtual machine under CPython 3.11; they only fix the scale in which
# calibrated times read as seconds.
CALIBRATION = {
    "parse": (bitset_kernel, 0.0048),
    "orbit": (rational_kernel, 0.0045),
    "sweep": (rational_kernel, 0.0045),
    "spectral": (rational_kernel, 0.0045),
}


SETUP = {
    "parse": setup_parse,
    "orbit": setup_orbit,
    "sweep": setup_sweep,
    "spectral": setup_spectral,
}


def setup(name, lib, seed, profile="full"):
    return SETUP[name](lib, seed, PROFILES[profile][name])

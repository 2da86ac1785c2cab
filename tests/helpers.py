"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the package's bitmask representation:
they work on explicit edge sets and nested loops so that agreement with
the fast paths is meaningful.
"""

from fractions import Fraction

from misdyn import digraph as dg
from misdyn.parsing import INTERNAL, LEAF, SPECIAL, ParseNode, ParseTree, depth_bound
from misdyn.system import Cell, Hyperplane, MISystem, SimplexVector, StochasticMatrix


def random_digraph(rng, n, p):
    edges = [(i, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((i, j))
    return dg.Digraph.from_edges(n, edges)


def edge_set(g):
    return set(g.edges(include_loops=True))


def graph_from_edge_set(n, edges):
    return dg.Digraph.from_edges(n, sorted(edges) + [(i, i) for i in range(n)])


def oracle_product(g, h):
    """Triple-loop boolean matrix product on explicit edge sets."""
    eg, eh = edge_set(g), edge_set(h)
    out = set()
    for x in range(g.n):
        for y in range(g.n):
            for z in range(g.n):
                if (x, z) in eg and (z, y) in eh:
                    out.add((x, y))
    return graph_from_edge_set(g.n, out)


def oracle_closure(g):
    """Floyd-Warshall style reachability closure."""
    n = g.n
    reach = [[g.has_edge(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return graph_from_edge_set(n, {(i, j) for i in range(n) for j in range(n) if reach[i][j]})


def oracle_temporal_reach(seq):
    """Pairs joined by a temporal walk through the sequence, computed by
    stepwise set propagation (independent of the product code)."""
    n = seq[0].n
    reach = {i: {i} for i in range(n)}
    for g in seq:
        edges = edge_set(g)
        reach = {
            i: {y for z in reach[i] for y in range(n) if (z, y) in edges}
            for i in range(n)
        }
    return graph_from_edge_set(
        n, {(i, j) for i in range(n) for j in reach[i]}
    )


def all_digraphs(n):
    """Every digraph on n vertices (self-loops fixed)."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        edges = [e for k, e in enumerate(offdiag) if bits >> k & 1]
        yield graph_from_edge_set(n, set(edges))


def densest_completion(g, undirected=False):
    """Union of all h with g*h == g (the set is closed under union, so
    the union is the unique densest such graph)."""
    n = g.n
    best = set((i, i) for i in range(n))
    for h in all_digraphs(n):
        if undirected and not dg.is_undirected(h):
            continue
        if dg.product(g, h) == g:
            best |= edge_set(h)
    return graph_from_edge_set(n, best)


def oracle_scc(g):
    """Mutual-reachability classes computed from the closure oracle."""
    cl = oracle_closure(g)
    blocks = []
    seen = set()
    for i in range(g.n):
        if i in seen:
            continue
        block = {
            j for j in range(g.n) if cl.has_edge(i, j) and cl.has_edge(j, i)
        }
        seen |= block
        blocks.append(frozenset(block))
    return blocks


def oracle_fronts(g):
    """(tf, utf) from their definitions on explicit in-neighbourhood sets:
    (i, j) is in tf iff in(i) is a subset of in(j), and in utf iff the
    two sets are equal."""
    n = g.n
    ins = [{u for u, v in edge_set(g) if v == j} for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    tf = graph_from_edge_set(n, {(i, j) for i, j in pairs if ins[i] <= ins[j]})
    utf = graph_from_edge_set(n, {(i, j) for i, j in pairs if ins[i] == ins[j]})
    return tf, utf


# ---------------------------------------------------------------------------
# Random systems


def random_stochastic(rng, n, denominator=12, dense=True, cycle=True):
    """Random row-stochastic rational matrix with a positive diagonal.

    With cycle=True a Hamiltonian cycle is forced into the support, so
    the matrix is irreducible (hence primitive, given the diagonal).
    """
    rows = []
    for i in range(n):
        weights = [rng.randint(1, denominator) if dense else rng.randint(0, denominator) for _ in range(n)]
        weights[i] = max(weights[i], 1)
        if cycle:
            weights[(i + 1) % n] = max(weights[(i + 1) % n], 1)
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return StochasticMatrix(rows)


def random_simplex(rng, n, denominator=1024):
    cuts = sorted(rng.randint(0, denominator) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(denominator - prev)
    return SimplexVector(Fraction(p, denominator) for p in parts)


def random_irreducible_system(rng, n, hyperplanes=1, denominator=12):
    """Random system at delta = 0 with hyperplane normals drawn
    coefficientwise from 5/8 to 11/8 and irreducible dense cell
    matrices. A plane a.x = 1 cuts the simplex interior only when some
    coefficient is below 1 and some above; a constant normal (c, ..., c)
    misses the simplex, or contains all of it when c == 1."""
    planes = []
    for _ in range(hyperplanes):
        normal = tuple(
            1 + Fraction(rng.randint(-3, 3), 8) for _ in range(n)
        )
        planes.append(Hyperplane(normal))
    cells = []
    for bits in range(1 << hyperplanes):
        pattern = "".join("+" if bits >> k & 1 else "-" for k in range(hyperplanes))
        cells.append(Cell(pattern, random_stochastic(rng, n, denominator)))
    return MISystem(n, planes, cells, delta=0, omega=Fraction(1, 8))


def bipartite_single_edge_sequence(side):
    """One single-edge bipartite graph per pair of L x R, n = 2*side."""
    n = 2 * side
    loops = [(i, i) for i in range(n)]
    return [
        dg.Digraph.from_edges(n, loops + [(l, side + r)])
        for l in range(side)
        for r in range(side)
    ]


def undirected_clique_growth_sequence(k, rounds):
    """Repeated clique-extension rounds: a clique on the first k
    vertices, an undirected pendant edge to a new vertex, then the k-1
    undirected spokes of the old clique, growing the clique by one
    vertex per round."""
    n = k + rounds
    loops = [(i, i) for i in range(n)]
    seq = []
    clique = list(range(k))
    clique_edges = [(a, b) for a in clique for b in clique if a != b]
    seq.append(dg.Digraph.from_edges(n, loops + clique_edges))
    for _ in range(rounds):
        fresh = len(clique)
        seq.append(dg.Digraph.from_edges(n, loops + [(clique[0], fresh), (fresh, clique[0])]))
        for other in clique[1:]:
            seq.append(
                dg.Digraph.from_edges(n, loops + [(clique[0], other), (other, clique[0])])
            )
        clique.append(fresh)
    return seq


def single_edge_staircase_sequence(n):
    """The edges i -> j, i < j, one per graph in lexicographic order. No
    edge is implied by earlier ones, so every append grows the cumulant
    and the tree is a fishbone of depth n(n-1)/2."""
    loops = [(i, i) for i in range(n)]
    return [
        dg.Digraph.from_edges(n, loops + [(i, j)]) for i in range(n) for j in range(i + 1, n)
    ]


def reference_dump(tree):
    """Recursive tree dump: the rendering ParseTree.dump must reproduce."""
    lines = []

    def walk(node, indent):
        pad = "  " * indent
        if node.is_leaf:
            lines.append(f"{pad}leaf {node.graph_index + 1} [{dg.edge_label(node.graph)}]")
            return
        if node.is_special:
            lines.append(f"{pad}special tf=[{dg.edge_label(node.annotation)}]")
        else:
            lines.append(f"{pad}node")
        for child in node.children:
            walk(child, indent + 1)

    if tree.root is None:
        return "(empty)\n"
    walk(tree.root, 0)
    return "\n".join(lines) + "\n"


def reference_tree_equal(a, b):
    """Recursive structural equality: same kinds, leaf indices, special
    annotations and child counts node by node; cumulants are ignored."""

    def equal(u, v):
        if u.kind != v.kind:
            return False
        if u.is_leaf:
            return u.graph_index == v.graph_index
        if u.is_special and u.annotation != v.annotation:
            return False
        if len(u.children) != len(v.children):
            return False
        return all(equal(x, y) for x, y in zip(u.children, v.children))

    if (a.n, a.length) != (b.n, b.length):
        return False
    if a.root is None or b.root is None:
        return a.root is b.root
    return equal(a.root, b.root)


def reference_parse(seq, n=0):
    """Parse with reference_append: the trees ParseTree.append must build."""
    tree = ParseTree(n)
    for g in seq:
        reference_append(tree, g)
    return tree


def reference_append(tree, g):
    """Four-case append: the stuck cases split on whether c_v is
    transitive and whether v's last child is a leaf, and recompute the
    segment product each needs."""
    if tree.root is None:
        if tree.n and g.n != tree.n:
            raise ValueError(f"vertex count mismatch: {g.n} != {tree.n}")
        tree.n = g.n
        leaf = ParseNode(LEAF, graph_index=tree.length, graph=g, cumulant=g)
        tree.root = ParseNode(INTERNAL, children=[leaf], cumulant=g)
        tree.length = 1
        return tree
    if g.n != tree.n:
        raise ValueError(f"vertex count mismatch: {g.n} != {tree.n}")
    grown = dg.product(tree.root.cumulant, g)
    leaf = ParseNode(LEAF, graph_index=tree.length, graph=g, cumulant=g)
    if grown != tree.root.cumulant:
        tree.root = ParseNode(INTERNAL, children=[tree.root, leaf], cumulant=grown)
    else:
        _reference_append_stuck(tree, leaf, g)
    tree.length += 1
    assert tree.depth() <= depth_bound(tree.n)
    return tree


def _reference_append_stuck(tree, leaf, g):
    path = [tree.root]
    v = tree.root
    while True:
        w = v.children[-1]
        if w.is_leaf or dg.product(w.cumulant, g) != w.cumulant:
            break
        v = w
        path.append(v)
    w = v.children[-1]
    cv = v.cumulant
    if dg.is_transitive(cv):
        if w.is_leaf:
            # Case 1.
            if g == cv:
                v.children.append(leaf)
            else:
                v.children.append(ParseNode(INTERNAL, children=[leaf], cumulant=g))
        else:
            # Case 2.
            if dg.product(w.cumulant, g) == cv:
                v.children.append(leaf)
            else:
                v.children[-1] = ParseNode(
                    INTERNAL, children=[w, leaf], cumulant=dg.product(w.cumulant, g)
                )
    else:
        h = dg.transitive_front(cv)
        if w.is_leaf:
            # Case 3.
            z_inner = ParseNode(INTERNAL, children=[leaf], cumulant=g)
            v.children.append(ParseNode(SPECIAL, annotation=h, children=[z_inner], cumulant=g))
        else:
            # Case 4.
            cw_g = dg.product(w.cumulant, g)
            assert dg.ordering_leq(cw_g, h) and h != cv
            z_inner = ParseNode(INTERNAL, children=[w, leaf], cumulant=cw_g)
            v.children[-1] = ParseNode(SPECIAL, annotation=h, children=[z_inner], cumulant=cw_g)
    new_child = v.children[-1]
    v.height = max(v.height, new_child.height + 1)
    for parent, child in zip(reversed(path[:-1]), reversed(path[1:])):
        parent.height = max(parent.height, child.height + 1)


def quadratic_threshold_step(a, b, xi, threshold, x):
    """Reference stepper for the variance-threshold rule, mirroring the
    discontinuity convention of the lifted system (ties map to the
    identity)."""
    from misdyn.rational import vec_mat
    from misdyn.system import variance_of

    var = variance_of(xi, x)
    if var == threshold:
        return x
    m = a if var > threshold else b
    return SimplexVector(vec_mat(x, m.rows))


# ---------------------------------------------------------------------------
# Plain-Fraction reference dynamics (no integer states, no cell lookup
# tables), the oracle for the orbit engine


def reference_step(system, x):
    """(cell index or None on a hyperplane, next state) by plain loops."""
    from misdyn.system import NoCellMatch

    threshold = 1 + system.delta
    signs = []
    for h in system.hyperplanes:
        v = sum((a * c for a, c in zip(h.normal, x)), Fraction(0))
        if v == threshold:
            return None, tuple(x)
        signs.append(v > threshold)
    for idx, cell in enumerate(system.cells):
        if all(p == "*" or (p == "+") == s for p, s in zip(cell.pattern, signs)):
            rows = cell.matrix.rows
            n = len(x)
            return idx, tuple(
                sum((x[i] * rows[i][j] for i in range(n)), Fraction(0)) for j in range(n)
            )
    raise NoCellMatch(tuple(1 if s else -1 for s in signs))


def reference_round(x, bits):
    """Round to multiples of 2^-bits, half to even, and put the residual
    on the first largest entry."""
    scale = 1 << bits
    rounded = [Fraction(round(c * scale), scale) for c in x]
    top = max(range(len(rounded)), key=lambda i: rounded[i])
    rounded[top] += 1 - sum(rounded)
    if rounded[top] < 0:
        raise ValueError("negative coordinate")
    return tuple(rounded)


def reference_orbit(system, x0, horizon, bit_cap=None, dyadic_bits=None):
    """(states, itinerary, (transient, period) or None, inexact), stopping
    at the first exact recurrence; a state with an entry over bit_cap
    bits raises BitSizeExceeded with its step."""
    from misdyn.system import BitSizeExceeded

    x = tuple(Fraction(c) for c in x0)
    states, itinerary, inexact = [x], [], False
    for t in range(horizon):
        cell, nxt = reference_step(system, x)
        itinerary.append(cell)
        if bit_cap is not None:
            bits = max(c.numerator.bit_length() + c.denominator.bit_length() for c in nxt)
            if bits > bit_cap:
                raise BitSizeExceeded(bits, bit_cap, step=t)
        if dyadic_bits is not None:
            rounded = reference_round(nxt, dyadic_bits)
            inexact = inexact or rounded != nxt
            nxt = rounded
        if nxt in states:
            t0 = states.index(nxt)
            states.append(nxt)
            return states, itinerary, (t0, t + 1 - t0), inexact
        states.append(nxt)
        x = nxt
    return states, itinerary, None, inexact


def reference_block_product(system, cells):
    """Fraction matrix product along a run of cell indices, in step
    order, by triple loops."""
    acc = system.cells[cells[0]].matrix.rows
    for c in cells[1:]:
        rows = system.cells[c].matrix.rows
        n = len(rows)
        acc = tuple(
            tuple(sum((r[k] * rows[k][j] for k in range(n)), Fraction(0)) for j in range(n))
            for r in acc
        )
    return acc


def reference_int_form(rows):
    """(K, E) of a rational matrix from its definition: E the least
    common multiple of the entries' denominators in lowest terms, found
    by a plain loop, and K the integer matrix E * rows."""
    rows = [[Fraction(v) for v in row] for row in rows]
    e = 1
    for row in rows:
        for v in row:
            a, b = e, v.denominator
            while b:
                a, b = b, a % b
            e = e * v.denominator // a
    return tuple(tuple(int(v * e) for v in row) for row in rows), e


def reference_write_mis_config(system):
    """The config text of a system, every matrix entry formatted from its
    Fraction in .rows."""

    def fmt(q):
        q = Fraction(q)
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    lines = [f"n={system.n}", f"omega={fmt(system.omega)}", f"delta={fmt(system.delta)}"]
    if any(cell.matrix.rows[i][i] == 0 for cell in system.cells for i in range(system.n)):
        lines.append("unchecked=1")
    for h in system.hyperplanes:
        lines.append("hyperplane: " + " ".join(fmt(v) for v in h.normal))
    for cell in system.cells:
        lines.append(f"cell: {cell.pattern or '.'} matrix:")
        for row in cell.matrix.rows:
            lines.append("  " + " ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_tau(rows):
    """Coefficient of ergodicity from its definition: half the largest
    l1 distance between two rows, in Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    return max(
        (sum((abs(a - b) for a, b in zip(u, v)), Fraction(0)) / 2 for u in rows for v in rows),
        default=Fraction(0),
    )


def reference_primitive(rows):
    """True iff the (n-1)^2 + 1-th power of the raw boolean support,
    taken by repeated triple-loop products, is entrywise positive."""
    n = len(rows)
    support = [[v > 0 for v in row] for row in rows]
    power = support
    for _ in range((n - 1) * (n - 1)):
        power = [
            [any(power[i][k] and support[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return all(all(row) for row in power)


def reference_weak_partition(system):
    """Weak irreducibility blocks by joining the per-cell strongly
    connected components (oracle_scc) and then verifying both properties
    on explicit edge sets: no cell has an edge between blocks, and every
    cell's support restricted to a block is strongly connected. None when
    the verification fails."""
    n = system.n
    block_of = list(range(n))
    for cell in system.cells:
        for block in oracle_scc(cell.matrix.support()):
            target = min(block_of[v] for v in block)
            merged = {block_of[v] for v in block}
            block_of = [target if b in merged else b for b in block_of]
    grouped = {}
    for v in range(n):
        grouped.setdefault(block_of[v], set()).add(v)
    partition = sorted((frozenset(b) for b in grouped.values()), key=min)
    for cell in system.cells:
        edges = edge_set(cell.matrix.support())
        if any(block_of[u] != block_of[v] for u, v in edges):
            return None
        for block in partition:
            members = sorted(block)
            index = {v: k for k, v in enumerate(members)}
            induced = graph_from_edge_set(
                len(members),
                {(index[u], index[v]) for u, v in edges if u in block and v in block},
            )
            if len(oracle_scc(induced)) != 1:
                return None
    return partition


def reference_detect_period(system, x0, horizon, sustained=3, scan_interval=16, sigma_cap=64):
    """(status, transient, period, tau_block, states) by the plain
    algorithm: exact recurrence first; every scan_interval steps and at
    the horizon, the smallest block repeated `sustained` times at the end
    of the itinerary whose Fraction block product has tau < 1."""

    def scan(itinerary):
        t = len(itinerary)
        for sigma in range(1, min(t // sustained, sigma_cap) + 1):
            block = itinerary[t - sigma :]
            if None in block:
                return None
            if all(
                itinerary[t - r * sigma : t - (r - 1) * sigma] == block
                for r in range(2, sustained + 1)
            ):
                tau = reference_tau(reference_block_product(system, block))
                if tau < 1:
                    return "asymptotically-periodic", t - sustained * sigma, sigma, tau
        return None

    x = tuple(Fraction(c) for c in x0)
    states, itinerary = [x], []
    for t in range(horizon):
        cell, nxt = reference_step(system, x)
        itinerary.append(cell)
        if nxt in states:
            t0 = states.index(nxt)
            states.append(nxt)
            block = itinerary[t0:]
            tau = None
            if None not in block:
                tau = reference_tau(reference_block_product(system, block))
            return ("exact-periodic", t0, t + 1 - t0, tau), states
        states.append(nxt)
        x = nxt
        if (t + 1) % scan_interval == 0:
            hit = scan(itinerary)
            if hit is not None:
                return hit, states
    return scan(itinerary) or ("unresolved", None, None, None), states


# ---------------------------------------------------------------------------
# Top-down elimination, the oracle for the rref-based helpers in rational


def reference_dependent_rows(rows):
    """Indices of the rows that top-down elimination reduces to zero:
    each lies in the span of the rows above it, and the rank is the
    number of the others."""
    used = []  # (pivot column, reduced row) pairs
    dependent = []
    for idx, row in enumerate(rows):
        row = [Fraction(v) for v in row]
        for c, base in used:
            if row[c] != 0:
                f = row[c]
                row = [v - f * w for v, w in zip(row, base)]
        pivot = next((c for c, v in enumerate(row) if v != 0), None)
        if pivot is None:
            dependent.append(idx)
            continue
        inv = 1 / row[pivot]
        used.append((pivot, [v * inv for v in row]))
    return dependent


def reference_rank(rows):
    return len(rows) - len(reference_dependent_rows(rows))

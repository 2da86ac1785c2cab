"""Digraphs with mandatory self-loops and their sequence algebra.

A digraph lives on vertices 0..n-1 and is stored as one n*n-bit
integer: bit i*n + j is set iff the edge i->j is present, so row i (the
out-neighbourhood of i) is the n-bit field starting at bit i*n. The
product g*h contains (x, y) whenever some z has (x, z) in g and (z, y)
in h, i.e. boolean matrix multiplication; cumulants are left folds of
that product. The transitive front tf(g) is the densest graph h with
g*h == g, and utf(g) its densest undirected counterpart.

The kernels work on whole rows at once. Masking column z out of the
flat integer leaves bit i*n set for every row i holding z, and
multiplying that by an n-bit row copies the row into each of those rows;
the copies sit at row boundaries and never overlap, so no carry crosses
a row. A product or closure is therefore n big-integer multiplies,
whatever the density.
"""

import functools
import warnings


class SelfLoopError(ValueError):
    """A vertex is missing its self-loop under strict construction."""


class SequenceFormatError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Digraph:
    __slots__ = ("n", "bits", "_rows")

    def __init__(self, n, rows):
        if n < 1:
            raise ValueError(f"vertex count {n} must be at least 1")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        full = (1 << n) - 1
        bits = 0
        for i, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row {i} references vertices outside 0..{n - 1}")
            if not r & (1 << i):
                raise SelfLoopError(
                    f"vertex {i} has no self-loop; use Digraph.from_edges to apply "
                    "the loop policy"
                )
            bits |= r << (i * n)
        self.n = n
        self.bits = bits
        self._rows = rows

    @classmethod
    def from_edges(cls, n, edges, strict_self_loops=False):
        """Build from an edge list; missing self-loops are added with a
        warning unless strict_self_loops, in which case they are rejected."""
        rows = [1 << i for i in range(n)]
        loops_seen = [False] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            if u == v:
                loops_seen[u] = True
        if not all(loops_seen):
            missing = [i for i, seen in enumerate(loops_seen) if not seen]
            if strict_self_loops:
                raise SelfLoopError(f"vertices {missing} lack self-loops")
            warnings.warn(
                f"added missing self-loops at vertices {missing}",
                stacklevel=2,
            )
        return cls(n, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def complete(cls, n):
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    @property
    def rows(self):
        """Bitmask rows: bit j of rows[i] is set iff the edge i->j is
        present. Derived from bits on first use, then kept."""
        if self._rows is None:
            n = self.n
            full, bits = (1 << n) - 1, self.bits
            self._rows = tuple(bits >> s & full for s in range(0, n * n, n))
        return self._rows

    def has_edge(self, i, j):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"vertex pair ({i}, {j}) outside 0..{self.n - 1}")
        return bool(self.bits >> (i * self.n + j) & 1)

    def edges(self, include_loops=False):
        """Edge pairs (i, j) in row-major order, so already sorted."""
        for i, r in enumerate(self.rows):
            for j in _vertices(r):
                if include_loops or i != j:
                    yield (i, j)

    def edge_count(self, include_loops=False):
        total = self.bits.bit_count()
        return total if include_loops else total - self.n

    def in_masks(self):
        """Column bitmasks: in_masks()[j] holds the in-neighborhood of j."""
        return reverse(self).rows

    def __eq__(self, other):
        return (
            isinstance(other, Digraph) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={list(self.edges())})"


def _vertices(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _digraph(n, bits):
    """A Digraph from kernel output, which holds every self-loop by
    construction, so the constructor's checks are skipped."""
    g = object.__new__(Digraph)
    g.n = n
    g.bits = bits
    g._rows = None
    return g


@functools.cache
def _colmask(n):
    """Bit i*n set for every row i: column 0 of the flat layout."""
    return ((1 << n * n) - 1) // ((1 << n) - 1)


def _compose(n, gbits, hrows):
    """Flat bits of the boolean product of g (flat) and h (rows, not
    necessarily with self-loops): row z of h is copied into every row of
    g that holds z."""
    colmask = _colmask(n)
    acc = 0
    for z, r in enumerate(hrows):
        if r:
            acc |= (gbits >> z & colmask) * r
    return acc


def _check_same_n(g, h):
    if g.n != h.n:
        raise ValueError(f"vertex count mismatch: {g.n} != {h.n}")


def product(g, h):
    """Composition g*h: (x, y) present iff some z has (x, z) in g, (z, y) in h."""
    _check_same_n(g, h)
    n = g.n
    # The self-loop of row z of h only copies column z of g, so g itself
    # stands in for every self-loop and each row of h is spread without it.
    rest = [r ^ (1 << z) for z, r in enumerate(h.rows)]
    return _digraph(n, g.bits | _compose(n, g.bits, rest))


def cumulant(seq):
    """Left fold of the product over a non-empty digraph sequence."""
    seq = list(seq)
    if not seq:
        raise ValueError("cumulant of an empty sequence")
    acc = seq[0]
    for g in seq[1:]:
        acc = product(acc, g)
    return acc


def transitive_closure(g):
    """Reachability closure by Warshall's algorithm on the flat layout:
    step k copies row k into every row that reaches k."""
    n = g.n
    full, colmask = (1 << n) - 1, _colmask(n)
    bits = g.bits
    for k in range(n):
        row = bits >> (k * n) & full
        if row != 1 << k:
            bits |= (bits >> k & colmask) * row
    return g if bits == g.bits else _digraph(n, bits)


def transitive_front(g):
    """Densest h with g*h == g; edge (i, j) iff in-nbhd(i) is a subset of
    in-nbhd(j)."""
    n = g.n
    full = (1 << n) - 1
    # (i, j) is missing iff some k has k->i but not k->j: the product of
    # the reverse of g with the complement of g.
    missing = _compose(n, reverse(g).bits, [r ^ full for r in g.rows])
    return _digraph(n, missing ^ ((1 << n * n) - 1))


def undirected_transitive_front(g):
    """Densest undirected h with g*h == g; a disjoint union of cliques with
    edge (i, j) iff the in-neighborhoods of i and j coincide."""
    tf = transitive_front(g)
    return _digraph(g.n, tf.bits & reverse(tf).bits)


def is_transitive(g):
    return product(g, g) == g


def is_clique(g):
    return g.bits == (1 << g.n * g.n) - 1


def is_undirected(g):
    return g.bits == reverse(g).bits


def is_strongly_connected(g):
    return is_clique(transitive_closure(g))


def reverse(g):
    """Transpose of the flat bit matrix, by string slicing: after the
    first reversal s[i*n + j] is the edge i->j, so s[j::n] is column j."""
    n = g.n
    s = format(g.bits, f"0{n * n}b")[::-1]
    return _digraph(n, int("".join(s[j::n] for j in range(n))[::-1], 2))


def ordering_leq(g, h):
    """Edge-set inclusion g <= h."""
    _check_same_n(g, h)
    return not g.bits & ~h.bits


def scc_partition(g):
    """Strongly connected components as frozensets, ordered by least vertex."""
    cl = transitive_closure(g)
    mutual = _digraph(g.n, cl.bits & reverse(cl).bits).rows
    seen = 0
    blocks = []
    for i, members in enumerate(mutual):
        if seen >> i & 1:
            continue
        seen |= members
        blocks.append(frozenset(_vertices(members)))
    return blocks


# ---------------------------------------------------------------------------
# Text format (1-based) and DOT export


def read_sequence_text(text):
    """Parse a sequence of digraphs.

    Each graph starts with a header line `n=<k>` followed by one `u v`
    edge per line (1-based vertices); a blank line or end of input
    terminates the graph. Self-loops are implicit.
    """
    graphs = []
    n = None
    lines = ((lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1))
    for lineno, line in lines:
        if not line:
            continue
        if not line.startswith("n="):
            raise SequenceFormatError(f"expected 'n=<k>' header, got {line!r}", lineno)
        try:
            k = int(line[2:])
        except ValueError:
            raise SequenceFormatError(f"bad vertex count in {line!r}", lineno) from None
        if n is not None and k != n:
            raise SequenceFormatError(f"vertex count changed from {n} to {k}", lineno)
        if k < 1:
            raise SequenceFormatError(f"vertex count {k} must be at least 1", lineno)
        n = k
        rows = [1 << i for i in range(n)]
        for lineno, line in lines:  # the graph's edges, up to a blank line
            if not line:
                break
            parts = line.split()
            if len(parts) != 2:
                raise SequenceFormatError(f"expected 'u v' edge, got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise SequenceFormatError(f"non-integer edge {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise SequenceFormatError(f"edge ({u}, {v}) outside 1..{n}", lineno)
            rows[u - 1] |= 1 << (v - 1)
        graphs.append(Digraph(n, rows))
    return graphs


def write_sequence_text(graphs):
    parts = []
    for g in graphs:
        lines = [f"n={g.n}"]
        lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def to_dot(g, name="g"):
    """DOT rendering; self-loops are omitted since every vertex has one."""
    lines = [f"digraph {name} {{"]
    for i in range(g.n):
        lines.append(f"  {i + 1};")
    for u, v in g.edges():
        lines.append(f"  {u + 1} -> {v + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_label(g):
    """Compact 1-based edge listing used to annotate tree dumps."""
    return ",".join(f"{u + 1}>{v + 1}" for u, v in g.edges()) or "loops"

"""Temporal parse trees for digraph sequences.

The tree tracks how the cumulant of a sequence grows. While the
cumulant grows strictly, appends stack a new root over the old one (a
"fishbone"). When the cumulant is stuck, the append descends the
rightmost path to the lowest internal node v whose cumulant absorbs the
new graph g (c_v * g == c_v). The trailing segment below v is v's last
child w, or empty when w is a leaf, and c is the segment's product with
g. Two rules then apply. If c_v is transitive, the leaf joins v when
c == c_v and otherwise replaces the segment under a new node with
cumulant c. If c_v is not transitive, that new node goes under a special
node annotated with the transitive front tf(c_v), the densest graph
that cannot extend any walk recorded in c_v.

Every node caches the product of the leaf graphs below it. Sketches
(transitive coarse-grainings: cl(c_v) for ordinary nodes, the tf
annotation for special nodes) decrease along every root path once the
re-wrapped trailing-segment annotations, which merely repeat an
ancestor, are collapsed; their clique partitions then refine step by
step, and decorate_topological extracts that refinement structure.
"""

from dataclasses import dataclass

from .digraph import (
    Digraph,
    cumulant,
    edge_label,
    is_transitive,
    ordering_leq,
    product,
    reverse,
    scc_partition,
    transitive_closure,
    transitive_front,
)

LEAF = "leaf"
INTERNAL = "internal"
SPECIAL = "special"

# Depth never exceeds this bound for n-vertex sequences; each level of
# the tree loses at least one cumulant edge every one or two steps.
def depth_bound(n):
    return 4 * n * n + 4


class ParseNode:
    __slots__ = ("kind", "graph_index", "graph", "annotation", "children", "cumulant", "height")

    def __init__(self, kind, *, graph_index=None, graph=None, annotation=None,
                 children=None, cumulant=None):
        self.kind = kind
        self.graph_index = graph_index
        self.graph = graph
        self.annotation = annotation
        self.children = children if children is not None else []
        self.cumulant = cumulant
        self.height = 0 if kind == LEAF else 1 + max(
            (c.height for c in self.children), default=-1
        )

    @property
    def is_leaf(self):
        return self.kind == LEAF

    @property
    def is_special(self):
        return self.kind == SPECIAL

    def sketch(self):
        """Transitive coarse-graining of this node's cumulant.

        Special nodes carry their annotation; other nodes use the
        transitive closure of the cached cumulant, computed on each call.
        A built node's cumulant never changes (appends that reach it are
        stuck, so they absorb into it); only backward_parse rewrites it,
        once, to restore the stored direction."""
        if self.kind == SPECIAL:
            return self.annotation
        return transitive_closure(self.cumulant)


class ParseTree:
    """Parse tree of a digraph sequence, built by appending graphs.

    Appends mutate the rightmost path only (single writer); use copy()
    for a what-if snapshot.
    """

    def __init__(self, n=0):
        self.n = n
        self.root = None
        self.length = 0

    @property
    def cumulant(self):
        return self.root.cumulant if self.root is not None else None

    def depth(self):
        return self.root.height if self.root is not None else 0

    def append(self, g):
        if self.n and g.n != self.n:
            raise ValueError(f"vertex count mismatch: {g.n} != {self.n}")
        self.n = g.n
        leaf = _leaf(self.length, g)
        if self.root is None:
            self.root = ParseNode(INTERNAL, children=[leaf], cumulant=g)
        elif (grown := product(self.root.cumulant, g)) != self.root.cumulant:
            # Strict cumulant growth: stack a new root.
            self.root = ParseNode(INTERNAL, children=[self.root, leaf], cumulant=grown)
        else:
            self._append_stuck(leaf, g)
        self.length += 1
        assert self.depth() <= depth_bound(self.n), "parse tree depth bound exceeded"
        return self

    def _append_stuck(self, leaf, g):
        # Descend the rightmost path to the lowest internal node v whose
        # cumulant absorbs g. The root qualifies, and absorption is
        # inherited upward, so a plain walk suffices; the product that
        # stops it is the segment's product c, kept for the edit. A child
        # with its parent's cumulant absorbs g too, so it costs no product.
        path = [self.root]
        segment, c = [], g
        while not path[-1].children[-1].is_leaf:
            v, w = path[-1], path[-1].children[-1]
            if w.cumulant != v.cumulant:
                cw_g = product(w.cumulant, g)
                if cw_g != w.cumulant:
                    segment, c = [w], cw_g
                    break
            path.append(w)
        v = path[-1]
        cv = v.cumulant
        transitive = is_transitive(cv)
        if transitive and c == cv:
            v.children.append(leaf)
        else:
            z = ParseNode(INTERNAL, children=segment + [leaf], cumulant=c)
            if not transitive:
                # The displaced segment keeps absorbing below tf(c_v).
                h = transitive_front(cv)
                assert ordering_leq(c, h) and h != cv, (
                    "trailing segment escaped the transitive front"
                )
                z = ParseNode(SPECIAL, annotation=h, children=[z], cumulant=c)
            v.children[len(v.children) - len(segment):] = [z]
        child = v.children[-1]
        for node in reversed(path):
            node.height = max(node.height, child.height + 1)
            child = node

    def copy(self):
        t = ParseTree(self.n)
        t.length = self.length
        twins = []
        for node, parent in self.preorder():
            twin = ParseNode(
                node.kind,
                graph_index=node.graph_index,
                graph=node.graph,
                annotation=node.annotation,
                cumulant=node.cumulant,
            )
            twin.height = node.height
            twins.append(twin)
            if parent >= 0:
                twins[parent].children.append(twin)
        t.root = twins[0] if twins else None
        return t

    def __eq__(self, other):
        if not isinstance(other, ParseTree):
            return NotImplemented
        return (self.n, self.length, self._shape()) == (other.n, other.length, other._shape())

    def _shape(self):
        # Preorder with child counts fixes the tree; leaves add their
        # index and special nodes their annotation.
        return [(v.kind, v.graph_index, v.annotation, len(v.children)) for v, _ in self.preorder()]

    def preorder(self):
        """Yield (node, parent_index) pairs; parents precede children."""
        if self.root is None:
            return
        stack = [(self.root, -1)]
        order = []
        while stack:
            node, parent = stack.pop()
            idx = len(order)
            order.append((node, parent))
            for child in reversed(node.children):
                stack.append((child, idx))
        yield from order

    def leaves(self):
        return [node for node, _ in self.preorder() if node.is_leaf]

    def dump(self):
        """Stable indented text rendering, one node per line."""
        if self.root is None:
            return "(empty)\n"
        lines = []
        depths = []
        for node, parent in self.preorder():
            depth = depths[parent] + 1 if parent >= 0 else 0
            depths.append(depth)
            pad = "  " * depth
            if node.is_leaf:
                lines.append(f"{pad}leaf {node.graph_index + 1} [{edge_label(node.graph)}]")
            elif node.is_special:
                lines.append(f"{pad}special tf=[{edge_label(node.annotation)}]")
            else:
                lines.append(f"{pad}node")
        return "\n".join(lines) + "\n"

    def to_dot(self, name="parse"):
        lines = [f"digraph {name} {{", "  node [shape=box];"]
        ids = {}
        for idx, (node, parent) in enumerate(self.preorder()):
            ids[idx] = node
            if node.is_leaf:
                label = f"g{node.graph_index + 1}"
                shape = "ellipse"
            elif node.is_special:
                label = f"tf: {edge_label(node.annotation)}"
                shape = "diamond"
            else:
                label = "."
                shape = "box"
            lines.append(f'  n{idx} [label="{label}", shape={shape}];')
            if parent >= 0:
                lines.append(f"  n{parent} -> n{idx};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _leaf(index, g):
    return ParseNode(LEAF, graph_index=index, graph=g, cumulant=g)


def parse(seq, n=None):
    """Parse a finite digraph sequence into its temporal parse tree."""
    tree = ParseTree(n or 0)
    for g in seq:
        tree.append(g)
    return tree


@dataclass
class Decomposition:
    """Top-level split of a sequence into minimal completing segments.

    segments[i] is the half-open index range of the i-th segment; for
    i < len(terminators) the segment product composed with the graph at
    terminators[i] equals the cumulant of the whole sequence, while each
    segment product alone stays strictly below it. The final segment is
    the (possibly empty) remainder.
    """

    n: int
    segments: list
    terminators: list
    total: Digraph


def temporal_decompose(seq):
    seq = list(seq)
    if not seq:
        raise ValueError("cannot decompose an empty sequence")
    total = cumulant(seq)
    segments = []
    terminators = []
    start = 0
    acc = Digraph.identity(total.n)
    for t, g in enumerate(seq):
        nxt = product(acc, g)
        if nxt == total:
            segments.append((start, t))
            terminators.append(t)
            start = t + 1
            acc = Digraph.identity(total.n)
        else:
            acc = nxt
    segments.append((start, len(seq)))
    return Decomposition(total.n, segments, terminators, total)


@dataclass
class TopologicalDecoration:
    """Sketches per node plus the clique-refinement productions along
    every tree edge.

    nodes / parents mirror the preorder of the tree. sketches[i] is the
    transitive sketch of node i. A trailing segment that keeps growing is
    re-wrapped in special nodes repeating the annotation already present
    higher on the path; such a repeat adds no information and is marked
    skipped (productions[i] is None and the effective sketch passes
    through). For retained nodes, productions[i] maps each clique block V
    of the nearest retained ancestor's sketch to the blocks of node i's
    sketch partitioning it, as (V, [W, ...]) pairs. The root has no
    production either.
    """

    nodes: list
    parents: list
    sketches: list
    effective: list
    productions: list

    def sketch_chain(self, index):
        """Nested chain of effective sketches from the root to a node."""
        chain = []
        while index >= 0:
            if not chain or chain[-1] != self.effective[index]:
                chain.append(self.effective[index])
            index = self.parents[index]
        return list(reversed(chain))


def decorate_topological(tree):
    if tree.root is None:
        raise ValueError("cannot decorate an empty tree")
    nodes = []
    parents = []
    for node, parent in tree.preorder():
        nodes.append(node)
        parents.append(parent)
    sketches = [node.sketch() for node in nodes]
    effective = [None] * len(nodes)
    blocks = [None] * len(nodes)  # clique blocks of effective[i]
    productions = [None] * len(nodes)
    effective[0] = sketches[0]
    blocks[0] = scc_partition(sketches[0])
    for i in range(1, len(nodes)):
        above = effective[parents[i]]
        if ordering_leq(sketches[i], above):
            effective[i] = sketches[i]
            blocks[i] = scc_partition(sketches[i])
            productions[i] = _refinement(blocks[parents[i]], blocks[i])
        else:
            # Re-wrapped special repeating an ancestor annotation.
            if not nodes[i].is_special:
                raise AssertionError("sketch chain broke at an ordinary node")
            effective[i] = above
            blocks[i] = blocks[parents[i]]
    return TopologicalDecoration(nodes, parents, sketches, effective, productions)


def _refinement(vs, ws):
    """(V, [W, ...]) pairs matching each coarse block V to the fine blocks
    partitioning it."""
    out = []
    for v in vs:
        members = [w for w in ws if w <= v]
        covered = frozenset().union(*members) if members else frozenset()
        if covered != v:
            raise AssertionError("clique blocks do not refine cleanly")
        out.append((v, members))
    return out


def backward_parse(seq):
    """Parse the edge-reversed sequence, then restore stored directions.

    The result parses products taken right-to-left, the order arising in
    diffusive averaging dynamics.
    """
    seq = list(seq)
    tree = parse([reverse(g) for g in seq])
    _reverse_stored(tree)
    return tree


def _reverse_stored(tree):
    # A leaf's graph is also its cumulant, and parents often share their
    # cumulant with a child, so each distinct graph is reversed once.
    reversed_of = {}

    def flip(g):
        if g is None:
            return None
        r = reversed_of.get(g)
        if r is None:
            r = reversed_of[g] = reverse(g)
        return r

    for node, _ in tree.preorder():
        node.cumulant = flip(node.cumulant)
        node.graph = flip(node.graph)
        node.annotation = flip(node.annotation)

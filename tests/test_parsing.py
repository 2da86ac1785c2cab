import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misdyn import digraph as dg
from misdyn import parsing
from misdyn.cli import main
from misdyn.digraph import Digraph
from misdyn.parsing import (
    ParseTree,
    backward_parse,
    decorate_topological,
    depth_bound,
    parse,
    temporal_decompose,
)

from helpers import (
    bipartite_single_edge_sequence,
    graph_from_edge_set,
    oracle_scc,
    random_digraph,
    reference_dump,
    reference_parse,
    reference_tree_equal,
    single_edge_staircase_sequence,
    undirected_clique_growth_sequence,
)


def random_sequence(rng, n=None, length=None):
    n = n or rng.randint(2, 5)
    length = length or rng.randint(1, 40)
    return [random_digraph(rng, n, rng.uniform(0.05, 0.5)) for _ in range(length)]


def segment_products(seq, decomposition):
    for (start, stop) in decomposition.segments:
        acc = Digraph.identity(decomposition.n)
        for g in seq[start:stop]:
            acc = dg.product(acc, g)
        yield (start, stop), acc


# ---------------------------------------------------------------------------
# Online construction


def test_single_graph_tree():
    g = graph_from_edge_set(3, {(0, 1)})
    t = parse([g])
    assert t.length == 1 and t.depth() == 1
    assert t.root.children[0].is_leaf


def test_empty_sequence_is_valid():
    t = parse([])
    assert t.root is None and t.length == 0 and t.depth() == 0


def test_dimension_mismatch():
    t = parse([Digraph.identity(3)])
    with pytest.raises(ValueError):
        t.append(Digraph.identity(4))


def test_fishbone_under_strict_growth():
    # Each graph adds a fresh edge, so the cumulant grows every step.
    n = 5
    seq = [
        graph_from_edge_set(n, {(0, j)}) for j in range(1, n)
    ]
    t = parse(seq)
    assert t.depth() == len(seq)
    node = t.root
    for _ in range(len(seq) - 1):
        assert len(node.children) == 2
        assert node.children[1].is_leaf
        node = node.children[0]


def test_clique_absorbed_directly():
    clique = Digraph.complete(3)
    t = parse([clique, clique, clique])
    assert len(t.root.children) == 3
    assert all(child.is_leaf for child in t.root.children)


def test_case1_intermediate_node_when_graph_differs():
    clique = Digraph.complete(3)
    small = graph_from_edge_set(3, {(0, 1)})
    t = parse([clique, small])
    assert len(t.root.children) == 2
    z = t.root.children[1]
    assert not z.is_leaf and not z.is_special
    assert len(z.children) == 1 and z.children[0].is_leaf


def test_special_node_created_when_cumulant_not_transitive():
    # Accumulating a directed 3-cycle one edge at a time leaves the
    # cumulant non-transitive; a stalled append must then open a special
    # node annotated with the transitive front.
    seq = [
        graph_from_edge_set(3, {(0, 1)}),
        graph_from_edge_set(3, {(1, 2)}),
        graph_from_edge_set(3, {(2, 0)}),
    ]
    t = parse(seq)
    cum = t.root.cumulant
    assert not dg.is_transitive(cum)
    t.append(Digraph.identity(3))
    z = t.root.children[-1]
    assert z.is_special
    assert z.annotation == dg.transitive_front(cum)
    # The annotation is absorbed by the cumulant that spawned it.
    assert dg.product(cum, z.annotation) == cum


def test_special_annotation_is_front_of_spawning_cumulant():
    # A special's annotation is tf of the cumulant that spawned it: the
    # nearest ancestor whose cumulant is not below the annotation.
    rng = random.Random(20)
    specials = 0
    for _ in range(60):
        seq = random_sequence(rng)
        t = parse(seq)
        order = list(t.preorder())
        for idx, (node, parent) in enumerate(order):
            if not node.is_special:
                continue
            specials += 1
            walk = parent
            while walk >= 0 and dg.ordering_leq(
                order[walk][0].cumulant, node.annotation
            ):
                walk = order[walk][1]
            assert walk >= 0
            spawner = order[walk][0].cumulant
            assert node.annotation == dg.transitive_front(spawner)
            assert dg.product(spawner, node.annotation) == spawner
    assert specials > 30


def test_online_equals_batch_with_snapshots():
    rng = random.Random(21)
    for _ in range(150):
        seq = random_sequence(rng, length=rng.randint(1, 25))
        online = ParseTree()
        snapshots = []
        for g in seq:
            online.append(g)
            snapshots.append(online.copy())
        for k, snap in enumerate(snapshots, start=1):
            assert snap == parse(seq[:k])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    length=st.integers(1, 16),
    p=st.floats(0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, length=12, p=0.03, seed=0)
def test_parser_invariants(n, length, p, seed):
    rng = random.Random(seed)
    seq = [random_digraph(rng, n, p) for _ in range(length)]
    online = ParseTree()
    snapshots = []
    for g in seq:
        online.append(g)
        assert online.depth() <= depth_bound(n)
        snapshots.append(online.copy())
    assert online.cumulant == dg.cumulant(seq)
    for k, snap in enumerate(snapshots, start=1):
        assert snap == parse(seq[:k])
    # Backward parsing folds the sequence right to left.
    assert backward_parse(seq).cumulant == dg.cumulant(seq[::-1])


@st.composite
def digraph_sequences(draw):
    n = draw(st.integers(1, 12))
    length = draw(st.integers(0, 30))
    p = draw(st.floats(0, 0.6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [random_digraph(rng, n, p) for _ in range(length)]


@settings(max_examples=60, deadline=None)
@given(seq=digraph_sequences())
@example(seq=bipartite_single_edge_sequence(6))
@example(seq=single_edge_staircase_sequence(16))
def test_append_matches_the_four_case_reference(seq):
    tree, reference = parse(seq), reference_parse(seq)
    assert tree == reference and tree.dump() == reference.dump()
    assert [(v.height, v.cumulant) for v, _ in tree.preorder()] == [
        (v.height, v.cumulant) for v, _ in reference.preorder()
    ]


def test_no_append_multiplies_the_same_pair_twice(monkeypatch):
    calls = []

    def counted(g, h):
        calls.append((g, h))
        return dg.product(g, h)

    monkeypatch.setattr(parsing, "product", counted)
    rng = random.Random(33)
    seqs = [random_sequence(rng) for _ in range(100)]
    seqs += [bipartite_single_edge_sequence(5), _cycle_then_identity_sequence()]
    stuck = 0
    for seq in seqs:
        tree = ParseTree()
        for g in seq:
            calls.clear()
            cumulant = tree.cumulant
            tree.append(g)
            assert len(calls) == len(set(calls)), "an append repeated a product"
            stuck += cumulant is not None and tree.cumulant == cumulant
    # The descent only runs on stuck appends, so they must be common.
    assert stuck > 500


def test_cumulant_caches_consistent():
    rng = random.Random(22)
    for _ in range(60):
        seq = random_sequence(rng)
        t = parse(seq)

        def leaf_graphs(node):
            if node.is_leaf:
                return [node.graph]
            out = []
            for child in node.children:
                out.extend(leaf_graphs(child))
            return out

        for node, _ in t.preorder():
            assert node.cumulant == dg.cumulant(leaf_graphs(node))
        leaves = t.leaves()
        assert [leaf.graph_index for leaf in leaves] == list(range(len(seq)))


def test_stable_prefix_property():
    # Appends only touch the rightmost path: the subtree of every node
    # off that path survives, leaf indices included, into all later trees.
    rng = random.Random(23)

    def frozen(node):
        if node.is_leaf:
            return ("leaf", node.graph_index)
        key = node.annotation.rows if node.is_special else None
        return (node.kind, key, tuple(frozen(c) for c in node.children))

    for _ in range(40):
        seq = random_sequence(rng, length=rng.randint(2, 30))
        full = parse(seq)
        full_subtrees = {frozen(node) for node, _ in full.preorder()}
        for k in range(1, len(seq)):
            prefix = parse(seq[:k])
            rightmost = set()
            node = prefix.root
            while node is not None:
                rightmost.add(id(node))
                node = node.children[-1] if node.children else None
            for node, _ in prefix.preorder():
                if id(node) not in rightmost:
                    assert frozen(node) in full_subtrees


def test_depth_bound_on_random_sequences():
    rng = random.Random(24)
    for _ in range(80):
        seq = random_sequence(rng)
        t = parse(seq)
        assert t.depth() <= depth_bound(t.n)


def test_bipartite_leftmost_path_quadratic():
    for side in (2, 3, 4):
        seq = bipartite_single_edge_sequence(side)
        t = parse(seq)
        length = 0
        node = t.root
        while node.children:
            node = node.children[0]
            length += 1
        assert length >= side * side
        assert t.depth() >= side * side
        assert t.depth() <= depth_bound(2 * side)


def test_undirected_recursive_construction_grows_depth():
    k, rounds = 3, 3
    seq = undirected_clique_growth_sequence(k, rounds)
    depths = []
    t = ParseTree()
    consumed = 0
    # Round r consumes 1 pendant edge plus (k + r - 1) - 1 spokes.
    sizes = [1] + [k + r - 1 for r in range(1, rounds + 1)]
    for size in sizes:
        for g in seq[consumed : consumed + size]:
            t.append(g)
        consumed += size
        depths.append(t.depth())
    for before, after in zip(depths, depths[1:]):
        assert after - before >= k
    assert consumed == len(seq)


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_single_clique():
    clique = Digraph.complete(3)
    d = temporal_decompose([clique])
    assert d.terminators == [0]
    assert d.segments == [(0, 0), (1, 1)]


def test_decompose_conditions_and_minimality():
    rng = random.Random(25)
    for _ in range(120):
        seq = random_sequence(rng, n=4, length=rng.randint(1, 20))
        d = temporal_decompose(seq)
        full = dg.cumulant(seq)
        pairs = list(segment_products(seq, d))
        for idx, ((start, stop), prod) in enumerate(pairs):
            if idx < len(d.terminators):
                m = d.terminators[idx]
                assert stop == m
                assert dg.product(prod, seq[m]) == full
                if stop > start:
                    assert prod != full
                # Minimality: no earlier cut completes the cumulant.
                acc = Digraph.identity(4)
                for t in range(start, m):
                    nxt = dg.product(acc, seq[t])
                    assert nxt != full
                    acc = nxt
            else:
                if stop > start:
                    assert prod != full


def test_nontransitive_cumulant_forces_single_terminator():
    rng = random.Random(26)
    seen = 0
    for _ in range(300):
        seq = random_sequence(rng, n=4, length=rng.randint(2, 16))
        full = dg.cumulant(seq)
        if dg.is_transitive(full):
            continue
        seen += 1
        d = temporal_decompose(seq)
        assert len(d.terminators) == 1
    assert seen > 20


def test_tree_top_level_matches_decomposition():
    rng = random.Random(27)
    checked = 0
    for _ in range(150):
        seq = random_sequence(rng, n=4, length=rng.randint(1, 18))
        t = parse(seq)
        d = temporal_decompose(seq)
        # Leaf children of the root sit exactly at the terminator indices.
        leaf_positions = [
            child.graph_index for child in t.root.children if child.is_leaf
        ]
        if dg.is_transitive(t.root.cumulant):
            assert leaf_positions == d.terminators
            # Non-leaf children span the nonempty segments, in order.
            spans = []
            for child in t.root.children:
                if not child.is_leaf:
                    leaves = _leaf_range(child)
                    spans.append(leaves)
            expected = [
                (start, stop) for start, stop in d.segments if stop > start
            ]
            assert spans == expected
        else:
            assert len(d.terminators) == 1
            assert leaf_positions[:1] == d.terminators
            trailing = [c for c in t.root.children if c.is_special]
            assert len(trailing) <= 1
        checked += 1
    assert checked == 150


def _leaf_range(node):
    leaves = []

    def walk(u):
        if u.is_leaf:
            leaves.append(u.graph_index)
            return
        for child in u.children:
            walk(child)

    walk(node)
    assert leaves == list(range(leaves[0], leaves[-1] + 1))
    return (leaves[0], leaves[-1] + 1)


# ---------------------------------------------------------------------------
# Topological decoration


def test_decorate_single_clique():
    clique = Digraph.complete(4)
    t = parse([clique])
    deco = decorate_topological(t)
    full = frozenset(range(4))
    assert deco.sketches[0] == clique
    # Root -> leaf production keeps the single block intact.
    assert deco.productions[1] == [(full, [full])]


def test_decorate_block_refinement():
    # Two disconnected cliques refined into four singleton-ish blocks.
    ab = graph_from_edge_set(4, {(0, 1), (1, 0), (2, 3), (3, 2)})
    t = parse([ab, Digraph.identity(4)])
    deco = decorate_topological(t)
    sketch_chain = deco.sketch_chain(len(deco.nodes) - 1)
    assert all(
        dg.ordering_leq(later, earlier)
        for earlier, later in zip(sketch_chain, sketch_chain[1:])
    )


def test_decorate_random_disjoint_unions():
    rng = random.Random(28)
    skipped = 0
    for _ in range(60):
        seq = random_sequence(rng, length=rng.randint(1, 15))
        t = parse(seq)
        deco = decorate_topological(t)
        for i in range(1, len(deco.nodes)):
            if deco.productions[i] is None:
                # Only re-wrapped specials are skipped, and their
                # annotation already appears higher up the chain.
                assert deco.nodes[i].is_special
                assert deco.sketches[i] in deco.sketch_chain(deco.parents[i])
                skipped += 1
                continue
            for v, ws in deco.productions[i]:
                assert ws, "every parent block must be covered"
                union = set()
                for w in ws:
                    assert not (union & w), "child blocks overlap"
                    union |= w
                assert union == set(v)
        # Every effective chain is nested in the edge ordering.
        for i in range(len(deco.nodes)):
            chain = deco.sketch_chain(i)
            for earlier, later in zip(chain, chain[1:]):
                assert dg.ordering_leq(later, earlier)
        # The blocks of each sketch are mutual-adjacency classes, i.e.
        # cliques of the transitive sketch; check against the set oracle.
        for sketch in deco.sketches:
            assert dg.is_transitive(sketch)
            assert sorted(dg.scc_partition(sketch), key=min) == sorted(
                oracle_scc(sketch), key=min
            )
    assert skipped > 0


# ---------------------------------------------------------------------------
# Backward parsing


def test_backward_single_edge():
    g = graph_from_edge_set(2, {(0, 1)})
    t = backward_parse([g])
    leaf = t.leaves()[0]
    assert leaf.graph == g


def test_backward_restores_leaf_graphs():
    rng = random.Random(29)
    for _ in range(40):
        seq = random_sequence(rng)
        t = backward_parse(seq)
        for leaf in t.leaves():
            assert leaf.graph == seq[leaf.graph_index]
        # Node cumulants are the right-to-left products of their leaves.
        for node, _ in t.preorder():
            idxs = [l.graph_index for l in _subtree_leaves(node)]
            assert node.cumulant == dg.cumulant([seq[i] for i in reversed(idxs)])


def _subtree_leaves(node):
    if node.is_leaf:
        return [node]
    out = []
    for child in node.children:
        out.extend(_subtree_leaves(child))
    return out


def _random_undirected(rng, n):
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
                edges.add((j, i))
    return graph_from_edge_set(n, edges)


def _shape(node):
    if node.is_leaf:
        return ("leaf", node.graph_index)
    return (node.kind, tuple(_shape(c) for c in node.children))


def test_backward_of_symmetric_sequence_matches_forward():
    rng = random.Random(30)
    # Constant undirected sequences keep every stored graph symmetric, so
    # restoring directions is the identity and the trees agree fully.
    for _ in range(20):
        n = rng.randint(2, 4)
        g = _random_undirected(rng, n)
        seq = [g] * rng.randint(1, 8)
        assert parse(seq) == backward_parse(seq)
    # General undirected sequences still give the same tree shape
    # (cumulants may acquire directions, which the restore flips back).
    for _ in range(20):
        n = rng.randint(2, 4)
        seq = [_random_undirected(rng, n) for _ in range(rng.randint(1, 10))]
        assert _shape(parse(seq).root) == _shape(backward_parse(seq).root)


# ---------------------------------------------------------------------------
# Rendering


def test_dump_golden():
    a = graph_from_edge_set(2, {(0, 1)})
    # a absorbs itself and equals the (transitive) cumulant, so the
    # second leaf hangs directly off the root.
    t = parse([a, a])
    assert t.dump() == (
        "node\n"
        "  leaf 1 [1>2]\n"
        "  leaf 2 [1>2]\n"
    )
    b = graph_from_edge_set(2, set())
    t2 = parse([a, b])
    assert t2.dump() == (
        "node\n"
        "  leaf 1 [1>2]\n"
        "  node\n"
        "    leaf 2 [loops]\n"
    )


def test_dot_contains_all_leaves():
    seq = bipartite_single_edge_sequence(2)
    t = parse(seq)
    dot = t.to_dot()
    for k in range(1, 5):
        assert f"g{k}" in dot


# ---------------------------------------------------------------------------
# Copy, equality and dump


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    length=st.integers(0, 16),
    p=st.floats(0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_copy_equality_and_dump_match_recursive_references(n, length, p, seed):
    rng = random.Random(seed)
    seq = [random_digraph(rng, n, p) for _ in range(length)]
    tree = parse(seq, n)
    assert tree.dump() == reference_dump(tree)
    twin = tree.copy()
    assert twin == tree and reference_tree_equal(twin, tree)
    assert twin.dump() == tree.dump() and twin.depth() == tree.depth()
    assert [v.cumulant for v, _ in twin.preorder()] == [v.cumulant for v, _ in tree.preorder()]
    back = backward_parse(seq)
    assert back.dump() == reference_dump(back)
    for other in (back, parse(seq[:-1], n), parse(seq[::-1], n)):
        assert (other == tree) == reference_tree_equal(other, tree)


def _cycle_then_identity_sequence():
    # The stalled identity append opens a special node (see above).
    edges = ({(0, 1)}, {(1, 2)}, {(2, 0)}, set())
    return [graph_from_edge_set(3, e) for e in edges]


def test_trees_differing_in_one_annotation_index_or_child_count_are_unequal():
    tree = parse(_cycle_then_identity_sequence())
    twin = tree.copy()
    special = next(v for v, _ in twin.preorder() if v.is_special)
    assert special.annotation != Digraph.complete(3)
    special.annotation = Digraph.complete(3)
    assert twin != tree and not reference_tree_equal(twin, tree)

    twin = tree.copy()
    twin.leaves()[0].graph_index = 7
    assert twin != tree and not reference_tree_equal(twin, tree)

    # Move the last grandchild up to be the last child of the root: the
    # preorder of kinds, indices and annotations stays the same and only
    # two child counts change.
    rng = random.Random(31)
    moved = 0
    while moved < 5:
        tree = parse(random_sequence(rng))
        twin = tree.copy()
        for v, _ in twin.preorder():
            w = v.children[-1] if v.children else None
            if w is not None and len(w.children) >= 2:
                v.children.append(w.children.pop())
                break
        else:
            continue
        moved += 1
        assert [(v.kind, v.graph_index) for v, _ in twin.preorder()] == [
            (v.kind, v.graph_index) for v, _ in tree.preorder()
        ]
        assert twin != tree and not reference_tree_equal(twin, tree)


def test_appending_to_a_copy_leaves_the_original():
    rng = random.Random(32)
    for _ in range(20):
        seq = random_sequence(rng)
        extra = random_sequence(rng, n=seq[0].n, length=5)
        tree = parse(seq)
        before = tree.dump()
        twin = tree.copy()
        for g in extra:
            twin.append(g)
        assert tree.dump() == before and tree.length == len(seq)
        assert tree == parse(seq)
        assert twin == parse(seq + extra)


def test_trees_are_unhashable():
    # A tree grows in place, so a hash taken before an append would go
    # stale; like a list, a tree compared by value has none.
    tree = parse(_cycle_then_identity_sequence())
    with pytest.raises(TypeError):
        hash(tree)


def test_copy_equality_and_dump_at_quadratic_depth():
    for side in (24, 32):
        tree = parse(bipartite_single_edge_sequence(side))
        assert tree.depth() >= side * side
        twin = tree.copy()
        assert twin == tree and twin.depth() == tree.depth()
        lines = tree.dump().splitlines()
        assert twin.dump().splitlines() == lines
        assert len(lines) == len(list(tree.preorder()))
        assert max(len(line) - len(line.lstrip()) for line in lines) == 2 * tree.depth()


def test_cli_parses_the_64_vertex_staircase(tmp_path, capsys):
    seq = single_edge_staircase_sequence(64)
    path = tmp_path / "staircase.txt"
    path.write_text(dg.write_sequence_text(seq))
    assert main(["parse", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("leaves=2016 depth=2016\n")
    assert out.count("leaf ") == 2016

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misdyn import digraph as dg
from misdyn.digraph import Digraph, SelfLoopError, SequenceFormatError

from helpers import (
    all_digraphs,
    densest_completion,
    edge_set,
    graph_from_edge_set,
    oracle_closure,
    oracle_fronts,
    oracle_product,
    oracle_scc,
    oracle_temporal_reach,
    random_digraph,
    bipartite_single_edge_sequence,
)


def chain3():
    return graph_from_edge_set(3, {(0, 1), (1, 2)})


def test_constructor_requires_loops():
    with pytest.raises(SelfLoopError):
        Digraph(2, (0b01, 0b01))


def test_from_edges_auto_adds_loops_with_warning():
    with pytest.warns(UserWarning):
        g = Digraph.from_edges(3, [(0, 1)])
    assert g.has_edge(2, 2)
    with pytest.raises(SelfLoopError):
        Digraph.from_edges(3, [(0, 1)], strict_self_loops=True)


def test_vertex_count_must_be_at_least_1():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"vertex count {n} must be at least 1"):
            Digraph(n, ())
    assert Digraph.identity(65).edge_count() == 0


def test_product_examples():
    g = graph_from_edge_set(3, {(0, 1)})
    h = graph_from_edge_set(3, {(1, 2)})
    assert edge_set(dg.product(g, h)) - {(i, i) for i in range(3)} == {
        (0, 1),
        (1, 2),
        (0, 2),
    }
    assert dg.product(g, Digraph.identity(3)) == g
    assert dg.product(Digraph.identity(3), g) == g


def test_product_matches_triple_loop_oracle():
    rng = random.Random(2)
    for _ in range(200):
        g = random_digraph(rng, 4, rng.uniform(0.1, 0.6))
        h = random_digraph(rng, 4, rng.uniform(0.1, 0.6))
        assert dg.product(g, h) == oracle_product(g, h)


def test_product_associative_and_monotone():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 5)
        g, h, k = (random_digraph(rng, n, 0.3) for _ in range(3))
        assert dg.product(dg.product(g, h), k) == dg.product(g, dg.product(h, k))
        p = dg.product(g, h)
        assert dg.ordering_leq(g, p) and dg.ordering_leq(h, p)


def test_cumulant_single_and_clique_absorbing():
    g = chain3()
    assert dg.cumulant([g]) == g
    clique = Digraph.complete(3)
    seq = [clique, chain3(), graph_from_edge_set(3, set())]
    acc = seq[0]
    for nxt in seq[1:]:
        acc = dg.product(acc, nxt)
        assert dg.is_clique(acc)


def test_cumulant_empty_rejected():
    with pytest.raises(ValueError):
        dg.cumulant([])


def test_cumulant_matches_temporal_walk_oracle():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 5)
        seq = [random_digraph(rng, n, 0.3) for _ in range(rng.randint(1, 8))]
        assert dg.cumulant(seq) == oracle_temporal_reach(seq)


def test_cumulant_bipartite_covers_all_pairs():
    seq = bipartite_single_edge_sequence(2)
    c = dg.cumulant(seq)
    assert all(c.has_edge(l, 2 + r) for l in range(2) for r in range(2))
    assert dg.cumulant(seq) == oracle_temporal_reach(seq)


def test_cumulant_monotone_in_prefix():
    rng = random.Random(5)
    seq = [random_digraph(rng, 4, 0.25) for _ in range(10)]
    prev = None
    for k in range(1, len(seq) + 1):
        cur = dg.cumulant(seq[:k])
        if prev is not None:
            assert dg.ordering_leq(prev, cur)
        prev = cur


def test_closure_examples_and_oracle():
    assert dg.transitive_closure(chain3()) == graph_from_edge_set(
        3, {(0, 1), (1, 2), (0, 2)}
    )
    cyc = graph_from_edge_set(3, {(0, 1), (1, 2), (2, 0)})
    assert dg.is_clique(dg.transitive_closure(cyc))
    rng = random.Random(6)
    for _ in range(100):
        g = random_digraph(rng, 5, rng.uniform(0.05, 0.5))
        assert dg.transitive_closure(g) == oracle_closure(g)


def test_front_sandwich():
    rng = random.Random(7)
    for _ in range(100):
        g = random_digraph(rng, 5, 0.3)
        tf = dg.transitive_front(g)
        assert dg.is_transitive(tf)
        assert dg.ordering_leq(tf, g)
        assert dg.ordering_leq(g, dg.transitive_closure(g))
        assert dg.ordering_leq(dg.undirected_transitive_front(g), tf)
        assert dg.product(g, tf) == g
        if dg.is_transitive(g):
            assert tf == g


def test_transitive_front_examples():
    assert edge_set(dg.transitive_front(chain3())) == {(0, 0), (1, 1), (2, 2), (0, 1)}
    cyc = graph_from_edge_set(3, {(0, 1), (1, 2), (2, 0)})
    assert edge_set(dg.transitive_front(cyc)) == {(0, 0), (1, 1), (2, 2)}
    cyc4 = graph_from_edge_set(4, {(0, 1), (1, 2), (2, 3), (3, 0)})
    assert dg.transitive_front(cyc4) == Digraph.identity(4)


def test_undirected_front_two_graph_example():
    g1 = graph_from_edge_set(3, {(0, 1), (1, 0)})
    g2 = graph_from_edge_set(3, {(1, 2), (2, 1)})
    p = dg.product(g1, g2)
    tf = dg.transitive_front(p)
    utf = dg.undirected_transitive_front(p)
    assert edge_set(tf) - {(i, i) for i in range(3)} == {(0, 1), (0, 2), (1, 2), (2, 1)}
    assert edge_set(utf) - {(i, i) for i in range(3)} == {(1, 2), (2, 1)}


def test_undirected_front_is_union_of_cliques():
    rng = random.Random(8)
    for _ in range(100):
        g = random_digraph(rng, 5, 0.35)
        utf = dg.undirected_transitive_front(g)
        assert dg.is_undirected(utf)
        blocks = dg.scc_partition(utf)
        for block in blocks:
            for a in block:
                for b in block:
                    assert utf.has_edge(a, b)
        clique = Digraph.complete(4)
        assert dg.undirected_transitive_front(clique) == clique


def test_fronts_match_exhaustive_densest_oracle_n3():
    for g in all_digraphs(3):
        assert dg.transitive_front(g) == densest_completion(g)
        assert dg.undirected_transitive_front(g) == densest_completion(
            g, undirected=True
        )


def test_densest_oracle_random_n4():
    rng = random.Random(9)
    for _ in range(12):
        g = random_digraph(rng, 4, 0.3)
        assert dg.undirected_transitive_front(g) == densest_completion(
            g, undirected=True
        )
        assert dg.transitive_front(g) == densest_completion(g)


def test_predicates():
    assert dg.is_transitive(Digraph.complete(4))
    assert dg.is_clique(Digraph.complete(3))
    assert not dg.is_clique(chain3())
    assert dg.is_undirected(Digraph.identity(3))
    assert not dg.is_undirected(chain3())
    cyc = graph_from_edge_set(3, {(0, 1), (1, 2), (2, 0)})
    assert dg.is_strongly_connected(cyc)
    assert not dg.is_strongly_connected(chain3())


def test_reverse():
    g = graph_from_edge_set(2, {(0, 1)})
    assert edge_set(dg.reverse(g)) - {(0, 0), (1, 1)} == {(1, 0)}
    rng = random.Random(10)
    for _ in range(50):
        g = random_digraph(rng, 4, 0.3)
        h = random_digraph(rng, 4, 0.3)
        assert dg.reverse(dg.reverse(g)) == g
        assert dg.reverse(dg.product(g, h)) == dg.product(dg.reverse(h), dg.reverse(g))


def test_ordering_leq_closure():
    rng = random.Random(11)
    for _ in range(50):
        g = random_digraph(rng, 5, 0.3)
        assert dg.ordering_leq(g, dg.transitive_closure(g))


def test_scc_partition_matches_oracle():
    rng = random.Random(12)
    for _ in range(80):
        g = random_digraph(rng, 5, 0.3)
        assert sorted(dg.scc_partition(g), key=min) == sorted(oracle_scc(g), key=min)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 64),
    p=st.floats(0, 1),
    q=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, p=0.0, q=1.0, seed=0)
@example(n=2, p=1.0, q=0.0, seed=1)
@example(n=63, p=0.05, q=1.0, seed=2)
@example(n=64, p=1.0, q=0.02, seed=3)
@example(n=64, p=0.0, q=0.1, seed=4)
@example(n=65, p=0.05, q=1.0, seed=5)
@example(n=127, p=0.02, q=0.3, seed=6)
@example(n=128, p=0.0, q=0.1, seed=7)
def test_kernels_match_edge_set_oracles_at_every_vertex_count(n, p, q, seed):
    # The flat layout's row stride is n, so every vertex count is its own case.
    rng = random.Random(seed)
    g = random_digraph(rng, n, p)
    h = random_digraph(rng, n, q)
    eg, eh = edge_set(g), edge_set(h)
    gh = dg.product(g, h)
    assert gh == oracle_product(g, h)
    rev = dg.reverse(g)
    assert edge_set(rev) == {(j, i) for i, j in eg}
    in_masks = [0] * n
    for i, j in eg:
        in_masks[j] |= 1 << i
    assert g.in_masks() == tuple(in_masks)
    closure = oracle_closure(g)
    assert dg.transitive_closure(g) == closure
    assert dg.is_transitive(g) == (closure == g)
    assert sorted(dg.scc_partition(g), key=min) == sorted(oracle_scc(g), key=min)
    tf, utf = oracle_fronts(g)
    assert dg.transitive_front(g) == tf
    assert dg.undirected_transitive_front(g) == utf
    assert dg.ordering_leq(g, h) == (eg <= eh)
    assert dg.ordering_leq(g, closure)
    # edges() yields row-major order, which the text writers rely on.
    assert list(g.edges()) == sorted(g.edges())
    # Kernel results derive their rows from the flat bits.
    for k in (gh, rev, tf):
        assert list(k.edges(include_loops=True)) == sorted(k.edges(include_loops=True))
        assert Digraph(n, k.rows) == k
        assert Digraph.from_edges(n, k.edges(include_loops=True)).rows == k.rows
        assert k.edge_count(include_loops=True) == len(edge_set(k))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 64),
    length=st.integers(1, 6),
    p=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, length=5, p=0.3, seed=13)
@example(n=64, length=2, p=1.0, seed=0)
def test_sequence_text_roundtrip(n, length, p, seed):
    rng = random.Random(seed)
    seq = [random_digraph(rng, n, p) for _ in range(length)]
    text = dg.write_sequence_text(seq)
    assert dg.read_sequence_text(text) == seq


def test_sequence_text_errors():
    with pytest.raises(SequenceFormatError) as err:
        dg.read_sequence_text("m=3\n1 2\n")
    assert "n=" in str(err.value)
    with pytest.raises(SequenceFormatError):
        dg.read_sequence_text("n=3\n1 5\n")
    with pytest.raises(SequenceFormatError):
        dg.read_sequence_text("n=3\n1 2 3\n")
    with pytest.raises(SequenceFormatError):
        dg.read_sequence_text("n=3\n1 2\n\nn=4\n1 2\n")


def test_sequence_text_blank_lines_and_ends():
    one_two, two_one = Digraph(2, (0b11, 0b10)), Digraph(2, (0b01, 0b11))
    assert dg.read_sequence_text("n=2\n1 2\n\n \n\t\n\nn=2\n2 1") == [one_two, two_one]
    assert dg.read_sequence_text("\n  \nn=2\n\nn=2\r\n 1 2 \r\n\n") == [
        Digraph.identity(2),
        one_two,
    ]
    assert dg.read_sequence_text("") == []
    assert dg.read_sequence_text("\n \n\t\n") == []


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("m=3\n1 2\n", 1, "expected 'n=<k>' header, got 'm=3'"),
        ("\n\nn=x\n", 3, "bad vertex count in 'n=x'"),
        ("n=3\n1 2\n\n\nn=4\n1 2\n", 5, "vertex count changed from 3 to 4"),
        ("n=3\n\nn=0\n", 3, "vertex count changed from 3 to 0"),
        ("\nn=0\n", 2, "vertex count 0 must be at least 1"),
        ("n=3\n1 2\n2 5\n", 3, "edge (2, 5) outside 1..3"),
        ("n=3\n1 2 3\n", 2, "expected 'u v' edge, got '1 2 3'"),
        ("n=3\n1 b\n", 2, "non-integer edge '1 b'"),
        ("n=3\n1 2\n\n 2 3\n", 4, "expected 'n=<k>' header, got '2 3'"),
    ],
    ids=[
        "bad-header",
        "bad-count",
        "count-changed",
        "count-changed-to-0",
        "count-0",
        "edge-out-of-range",
        "three-tokens",
        "non-integer-edge",
        "edge-after-blank",
    ],
)
def test_sequence_text_error_lines(text, line, message):
    with pytest.raises(SequenceFormatError) as err:
        dg.read_sequence_text(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_dot_output_mentions_edges():
    g = chain3()
    dot = dg.to_dot(g)
    assert "1 -> 2" in dot and "2 -> 3" in dot and "->" in dot

import inspect
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekit.graphs import (
    DisconnectedGraphError,
    GraphError,
    UnitGraph,
    all_pairs_distances,
    are_isomorphic,
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    integer_distance_matrix,
    path_graph,
    random_tree,
    spider_graph,
    star_graph,
    tree_distance_matrix,
    verify_isomorphism,
)
from helpers import oracle_all_dists


def test_path_distance():
    d = all_pairs_distances(path_graph(3))
    assert d[0, 2] == 2 and d[2, 0] == 2 and d[1, 1] == 0


def test_single_vertex():
    d = all_pairs_distances(UnitGraph(1, ()))
    assert d.shape == (1, 1) and d[0, 0] == 0


def test_cube_antipodal_matches_bfs_oracle():
    g = hypercube_graph(3)
    d = all_pairs_distances(g)
    oracle = oracle_all_dists(g.n, g.edges)
    assert (d == np.array(oracle)).all()
    assert d[0, 7] == 3


def test_distance_matrix_symmetric_zero_diagonal():
    for g in [grid_graph(3, 4), cycle_graph(7), spider_graph(3, 2)]:
        d = all_pairs_distances(g)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()


def test_disconnected_raises_with_witness():
    g = UnitGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraphError) as exc:
        all_pairs_distances(g)
    assert {exc.value.u, exc.value.v} <= {0, 1, 2, 3}


def test_rejects_loops_and_multi_edges():
    with pytest.raises(GraphError):
        UnitGraph(2, ((0, 0),))
    with pytest.raises(GraphError):
        UnitGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(GraphError):
        UnitGraph(2, ((0, 2),))


def test_fixture_shapes():
    assert len(grid_graph(3, 3).edges) == 12
    assert hypercube_graph(4).n == 16
    assert len(hypercube_graph(4).edges) == 32
    assert star_graph(5).degree(0) == 5
    assert complete_bipartite_graph(2, 3).n == 5
    assert spider_graph(3, 4).n == 13
    rng = np.random.default_rng(0)
    t = random_tree(30, rng)
    assert t.is_tree()


def test_induced_subgraph():
    g = grid_graph(3, 3)
    sub, index = g.induced_subgraph([0, 1, 2, 5])
    assert sub.n == 4
    assert len(sub.edges) == 3
    assert index[5] == 3


def test_json_roundtrip():
    g = grid_graph(2, 4)
    assert UnitGraph.from_dict(g.to_dict()) == g
    labelled = UnitGraph(2, ((0, 1),), labels=("a", "b"))
    assert UnitGraph.from_dict(labelled.to_dict()) == labelled


def test_isomorphism():
    assert are_isomorphic(cycle_graph(4), hypercube_graph(2))
    assert not are_isomorphic(path_graph(4), star_graph(3))
    assert are_isomorphic(grid_graph(3, 5), grid_graph(5, 3))
    mapping = {v: v for v in range(6)}
    assert verify_isomorphism(cycle_graph(6), cycle_graph(6), mapping)
    assert not verify_isomorphism(path_graph(3), path_graph(3), {0: 0, 1: 1, 2: 1})


# --- the tree kernel --------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def scipy_distances(n, edges):
    """Reference all-pairs distances: scipy's Dijkstra on the weighted edges
    (inf between components)."""
    u, v, w = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    return csgraph.shortest_path(sp.csr_matrix((w, (u, v)), shape=(n, n)), directed=False)


@st.composite
def weighted_trees(draw, max_n=40, max_w=1):
    """(n, edges): a random tree with permuted labels, so vertex 0, the
    root of the preorder, may sit anywhere, with lengths in 1..max_w."""
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(n)))
    edges = [
        (perm[draw(st.integers(0, i - 1))], perm[i], draw(st.integers(1, max_w)))
        for i in range(1, n)
    ]
    return n, edges


@PROPERTY
@given(weighted_trees(max_w=1) | weighted_trees(max_w=4))
def test_tree_kernel_matches_scipy(tree):
    n, edges = tree
    D = tree_distance_matrix(n, edges)
    assert D.dtype == np.int64
    assert (D == scipy_distances(n, edges)).all()


@PROPERTY
@given(weighted_trees(max_w=1))
def test_tree_graph_distances_match_bfs(tree):
    n, edges = tree
    g = UnitGraph(n, tuple((u, v) for u, v, _ in edges))
    assert g.distance_matrix.dtype == np.int32
    assert (g.distance_matrix == np.array(oracle_all_dists(n, g.edges))).all()


def test_tree_kernel_on_one_and_two_vertices():
    assert tree_distance_matrix(1, []).tolist() == [[0]]
    assert tree_distance_matrix(2, [(1, 0, 3)]).tolist() == [[0, 3], [3, 0]]
    assert UnitGraph(2, ((0, 1),)).distance_matrix.tolist() == [[0, 1], [1, 0]]


def test_tree_kernel_refuses_a_wrong_edge_count():
    with pytest.raises(GraphError):
        tree_distance_matrix(3, [(0, 1, 1)])


def test_tree_kernel_runs_a_long_path_without_recursion():
    n = 3000
    # a recursive walk would need about n frames; leave it 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        D = tree_distance_matrix(n, [(i, i + 1, 1) for i in range(n - 1)])
    finally:
        sys.setrecursionlimit(limit)
    line = np.arange(n)
    assert (D[0] == line).all() and (D[:, 0] == line).all()
    assert (D[n // 2] == np.abs(line - n // 2)).all()
    assert int(D.sum()) == (n - 1) * n * (n + 1) // 3  # sum of |i - j|


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, ((0, 1), (1, 2), (2, 0))),  # triangle, isolated 3
        (4, ((1, 2), (2, 3), (3, 1))),  # isolated 0, triangle
        (6, ((0, 5), (1, 2), (2, 3), (3, 4), (4, 1))),  # edge 0-5, 4-cycle
        (6, ((0, 1), (1, 2), (2, 0), (4, 5))),  # fewer than n - 1 edges
        (5, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3))),  # more than n - 1 edges
    ],
)
def test_disconnected_graph_keeps_the_bfs_witness(n, edges):
    g = UnitGraph(n, edges)
    # the witness of the BFS path: the first unreachable pair in row order
    old = np.argwhere(np.isinf(scipy_distances(n, [(u, v, 1) for u, v in g.edges])))[0]
    with pytest.raises(DisconnectedGraphError) as exc:
        g.distance_matrix
    assert (exc.value.u, exc.value.v) == tuple(old.tolist())
    if len(edges) == n - 1:
        with pytest.raises(DisconnectedGraphError) as exc:
            tree_distance_matrix(n, [(u, v, 1) for u, v in edges])
        assert (exc.value.u, exc.value.v) == tuple(old.tolist())


# --- the integer kernel ------------------------------------------------------


@st.composite
def weighted_graphs(draw, max_n=30, max_w=4):
    """(n, edges): a random simple graph, often disconnected, on permuted
    labels, with lengths in 1..max_w."""
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(n)))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    keys = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return n, [(perm[a], perm[b], draw(st.integers(1, max_w))) for a, b in keys]


def expected_integer_distances(n, edges):
    ref = scipy_distances(n, edges)
    return np.where(np.isinf(ref), -1, ref)


@PROPERTY
@given(weighted_graphs(max_w=1) | weighted_graphs(max_w=4))
def test_integer_kernel_matches_scipy(graph):
    n, edges = graph
    D = integer_distance_matrix(n, edges)
    assert D.dtype == np.int64
    assert (D == expected_integer_distances(n, edges)).all()


@pytest.mark.parametrize(
    "g",
    [grid_graph(4, 6), grid_graph(7, 7), hypercube_graph(4), cycle_graph(9), complete_bipartite_graph(3, 4)],
    ids=["grid-4x6", "grid-7x7", "Q4", "C9", "K34"],
)
def test_integer_kernel_on_unit_graphs(g):
    edges = [(u, v, 1) for u, v in g.edges]
    D = integer_distance_matrix(g.n, edges)
    assert (D == expected_integer_distances(g.n, edges)).all()
    assert (g.distance_matrix == np.array(oracle_all_dists(g.n, g.edges))).all()
    assert g.distance_matrix.dtype == np.int32


def test_integer_kernel_marks_unreachable_pairs():
    D = integer_distance_matrix(5, [(0, 1, 3), (1, 2, 1), (3, 4, 2)])
    assert D.tolist() == [
        [0, 3, 4, -1, -1],
        [3, 0, 1, -1, -1],
        [4, 1, 0, -1, -1],
        [-1, -1, -1, 0, 2],
        [-1, -1, -1, 2, 0],
    ]
    assert integer_distance_matrix(1, []).tolist() == [[0]]

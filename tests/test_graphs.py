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
    TreeIndex,
    UnitGraph,
    bfs_distances,
    grid_graph,
    integer_distance_matrix,
    path_graph,
    random_tree,
    spider_graph,
    tree_metrics,
)
from cubekit.median import BLOCK
from helpers import (
    GraphMedianSpace,
    are_isomorphic,
    complete_bipartite_graph,
    cycle_graph,
    hypercube_graph,
    oracle_all_dists,
    oracle_lca,
    oracle_medians_of,
    oracle_root_paths,
    shaped_trees,
    star_graph,
    verify_isomorphism,
)


def test_path_distance():
    d = path_graph(3).distance_matrix
    assert d[0, 2] == 2 and d[2, 0] == 2 and d[1, 1] == 0


def test_single_vertex():
    d = UnitGraph(1, ()).distance_matrix
    assert d.shape == (1, 1) and d[0, 0] == 0


def test_cube_antipodal_matches_bfs_oracle():
    g = hypercube_graph(3)
    d = g.distance_matrix
    oracle = oracle_all_dists(g.n, g.edges)
    assert (d == np.array(oracle)).all()
    assert d[0, 7] == 3


def test_distance_matrix_symmetric_zero_diagonal():
    for g in [grid_graph(3, 4), cycle_graph(7), spider_graph(3, 2)]:
        d = g.distance_matrix
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()


def test_disconnected_raises_with_witness():
    g = UnitGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraphError) as exc:
        g.distance_matrix
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
@given(weighted_trees(max_w=1))
def test_tree_kernel_matches_scipy(tree):
    n, edges = tree
    D = TreeIndex(n, [(u, v) for u, v, _ in edges]).distance_matrix()
    assert D.dtype == np.int32
    assert (D == scipy_distances(n, edges)).all()


@PROPERTY
@given(weighted_trees(max_w=1))
def test_tree_graph_distances_match_bfs(tree):
    n, edges = tree
    g = UnitGraph(n, tuple((u, v) for u, v, _ in edges))
    assert g.distance_matrix.dtype == np.int32
    assert (g.distance_matrix == np.array(oracle_all_dists(n, g.edges))).all()


def test_tree_kernel_on_one_and_two_vertices():
    assert TreeIndex(1, []).distance_matrix().tolist() == [[0]]
    assert TreeIndex(2, [(1, 0)]).distance_matrix().tolist() == [[0, 1], [1, 0]]
    assert UnitGraph(2, ((0, 1),)).distance_matrix.tolist() == [[0, 1], [1, 0]]


def test_tree_kernel_refuses_a_wrong_edge_count():
    with pytest.raises(GraphError):
        TreeIndex(3, [(0, 1)]).distance_matrix()


def test_tree_kernel_runs_a_long_path_without_recursion():
    n = 3000
    # a recursive walk would need about n frames; leave it 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        D = TreeIndex(n, [(i, i + 1) for i in range(n - 1)]).distance_matrix()
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
    with pytest.raises(DisconnectedGraphError) as exc:
        g.require_connected()  # through the tree index when there are n - 1 edges
    assert (exc.value.u, exc.value.v) == tuple(old.tolist())
    if len(edges) == n - 1:
        with pytest.raises(DisconnectedGraphError) as exc:
            TreeIndex(n, edges).distance_matrix()
        assert (exc.value.u, exc.value.v) == tuple(old.tolist())


# --- distances to a set ------------------------------------------------------


@st.composite
def sparse_graphs(draw, max_n=25):
    """A graph of 1 to max_n vertices with up to 2n random edges: often
    disconnected, sometimes with cycles."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    return UnitGraph(n, tuple(edges))


@PROPERTY
@given(sparse_graphs() | shaped_trees(max_n=30) | st.builds(grid_graph, *[st.integers(1, 6)] * 2), st.data())
def test_bfs_distances_match_the_dense_oracle(g, data):
    """d(v, S) = D[:, S].min(axis=1), the dense oracle, for drawn sources
    (repeats allowed) and limits; -1 past the limit or off S's components."""
    D = np.array([[np.inf if d is None else d for d in row] for row in oracle_all_dists(g.n, g.edges)], dtype=float)
    S = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6))
    limit = data.draw(st.none() | st.integers(0, g.n))
    near = D[:, S].min(axis=1)
    if limit is not None:
        near[near > limit] = np.inf
    got = bfs_distances(g.n, g.edge_array, S, limit)
    assert got.dtype == np.int64
    assert got.tolist() == np.where(np.isinf(near), -1, near).astype(np.int64).tolist()


def test_bfs_distances_edge_cases():
    assert bfs_distances(1, np.empty((0, 2), dtype=np.int64), [0]).tolist() == [0]
    assert bfs_distances(1, [], [0, 0], limit=0).tolist() == [0]
    g = UnitGraph(6, ((0, 1), (1, 2), (3, 4)))  # 5 isolated
    assert bfs_distances(6, g.edge_array, [2, 2, 1]).tolist() == [1, 0, 0, -1, -1, -1]
    assert bfs_distances(6, g.edge_array, [0, 4], limit=1).tolist() == [0, 1, -1, 1, 0, -1]
    assert bfs_distances(6, g.edge_array, []).tolist() == [-1] * 6
    assert bfs_distances(6, g.edge_array, [0], limit=-1).tolist() == [-1] * 6


# --- the tree index ----------------------------------------------------------


@PROPERTY
@given(weighted_trees(max_w=1), st.data())
def test_tree_index_queries_match_brute_force(tree, data):
    n, edges = tree
    index = TreeIndex(n, [(u, v) for u, v, _ in edges])
    paths = oracle_root_paths(n, edges)
    D = scipy_distances(n, edges)
    u, v = np.divmod(np.arange(n * n), n)
    assert index.lca(u, v).tolist() == [oracle_lca(paths, a, b) for a, b in zip(u, v)]
    assert index.dist(u, v).dtype == np.int64
    assert (index.dist(u, v) == D[u, v]).all()
    triples = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=30))
    a, b, c = np.array(triples).T
    assert [[m] for m in index.median(a, b, c).tolist()] == [
        oracle_medians_of(D, *t) for t in triples
    ]
    # broadcast: one vertex against an array, and scalars
    assert (index.dist(a[0], np.arange(n)) == D[a[0]]).all()
    assert int(index.lca(a[0], b[0])) == oracle_lca(paths, int(a[0]), int(b[0]))


@PROPERTY
@given(shaped_trees(), st.data())
def test_tree_index_toward_is_the_graph_step(g, data):
    """`TreeIndex.toward` against the next-hop step of the general-graph
    space, on every ordered pair as aligned arrays and on drawn pairs as
    scalars."""
    index, space = g.tree_index, GraphMedianSpace(g)
    u, v = np.divmod(np.arange(g.n * g.n), g.n)
    u, v = u[u != v], v[u != v]
    if g.n > 1:
        assert (index.toward(u, v) == space.toward(u, v)).all()
        a, b = data.draw(st.sampled_from(list(zip(u.tolist(), v.tolist()))))
        assert int(index.toward(a, b)) == space.toward(a, b)
    # one vertex: no children, and the step from the root is the root
    assert int(index.toward(0, 0)) == int(index.parent[0]) == 0


def test_tree_index_on_a_long_path_and_on_one_and_two_vertices():
    n = 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        index = TreeIndex(n, [(i, i + 1) for i in range(n - 1)])
    finally:
        sys.setrecursionlimit(limit)
    rng = np.random.default_rng(0)
    a, b, c = rng.integers(0, n, size=(3, 2000))
    assert (index.lca(a, b) == np.minimum(a, b)).all()  # rooted at 0
    assert (index.dist(a, b) == np.abs(a - b)).all()
    assert (index.median(a, b, c) == np.sort([a, b, c], axis=0)[1]).all()
    assert (index.lca(n - 1, np.arange(n)) == np.arange(n)).all()

    one = TreeIndex(1, [])
    assert int(one.lca(0, 0)) == 0 and one.distance_matrix().tolist() == [[0]]
    assert int(one.dist(0, 0)) == 0 and int(one.median(0, 0, 0)) == 0
    two = TreeIndex(2, [(1, 0)])
    assert two.lca(np.arange(2)[:, None], np.arange(2)).tolist() == [[0, 0], [0, 1]]
    assert two.dist([0, 1, 1], [1, 0, 1]).tolist() == [1, 1, 0]
    assert two.median([0, 1], [1, 1], [1, 0]).tolist() == [1, 1]


# --- the batched kernel over parent arrays -----------------------------------


def parents_from(n, edges, root):
    """The parent array of the tree with these edges hung from `root` (the
    root its own parent), by a plain BFS."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent, queue = {root: root}, [root]
    for x in queue:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return [parent[v] for v in range(n)]


def check_tree_metrics(n, trees):
    """tree_metrics on the parent arrays of (edges, root) pairs equals the
    BFS oracle tree by tree; returns the block sizes."""
    parent = np.array([parents_from(n, edges, root) for edges, root in trees]).reshape(-1, n)
    blocks = list(tree_metrics(parent))
    assert all(b.dtype == np.int32 and b.shape[1:] == (n, n) for b in blocks)
    assert all(len(b) * n * n <= BLOCK**2 or len(b) == 1 for b in blocks)
    got = np.concatenate(blocks)
    for D, (edges, _) in zip(got, trees):
        assert (D == np.array(oracle_all_dists(n, edges))).all()
    return [len(b) for b in blocks]


def test_tree_metrics_on_one_and_two_vertices():
    assert check_tree_metrics(1, [([], 0)]) == [1]
    assert check_tree_metrics(2, [([(0, 1)], 0), ([(0, 1)], 1)]) == [2]


def test_tree_metrics_on_a_path_rooted_at_an_end_and_on_a_star():
    n = 130  # depth n - 1 from vertex 0; more cells than one block
    path = [(i, i + 1) for i in range(n - 1)]
    assert check_tree_metrics(n, [(path, 0), (path, n - 1), (path, n // 2)]) == [1, 1, 1]
    star = [(0, i) for i in range(1, 12)]
    assert check_tree_metrics(12, [(star, 0), (star, 5)]) == [2]


@PROPERTY
@given(st.data())
def test_tree_metrics_of_random_trees_with_their_own_roots(data):
    n = data.draw(st.integers(1, 40))
    trees = []
    for _ in range(data.draw(st.integers(1, 5))):
        perm = data.draw(st.permutations(range(n)))
        edges = [(perm[data.draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)]
        trees.append((edges, data.draw(st.integers(0, n - 1))))
    check_tree_metrics(n, trees)


def test_tree_metrics_of_more_trees_than_one_block():
    rng = np.random.default_rng(3)
    trees = []
    for _ in range(23):
        g = random_tree(40, rng)
        perm = rng.permutation(40)
        trees.append(([(int(perm[u]), int(perm[v])) for u, v in g.edges], int(rng.integers(40))))
    # BLOCK ** 2 // 40 ** 2 = 10 trees a block
    assert check_tree_metrics(40, trees) == [10, 10, 3]


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
@given(weighted_graphs(max_w=1) | weighted_graphs(max_w=4) | weighted_trees(max_w=4))
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


# --- pair distances --------------------------------------------------------


@PROPERTY
@given(weighted_trees(max_w=1) | weighted_graphs(max_w=1))
def test_pair_distances_read_the_distance_matrix_metric(graph):
    n, edges = graph
    g = UnitGraph(n, tuple((u, v) for u, v, _ in edges))
    u, v = np.arange(n)[:, None], np.arange(n)
    fresh = UnitGraph(n, g.edges)  # nothing cached
    try:
        D = g.distance_matrix
    except DisconnectedGraphError as err:
        with pytest.raises(DisconnectedGraphError) as got:
            fresh.pair_distances(u, v)
        assert (got.value.u, got.value.v) == (err.u, err.v)
        return
    got = fresh.pair_distances(u, v)
    assert got.dtype == np.int64 and (got == D).all()
    # a tree answers from its index, with no n x n matrix
    assert ("distance_matrix" in vars(fresh)) == (len(g.edges) != n - 1)


def test_is_connected_agrees_with_the_component_labels():
    # seeded random trees, relabelled so that 0 is no special vertex, and
    # graphs of n - 1 edges that are no tree, against the labels of
    # `components`; a tree answers through its `tree_index`, which it keeps
    rng = np.random.default_rng(29)
    graphs = [UnitGraph(1, ())]  # one vertex, no edge
    for _ in range(30):
        t = random_tree(int(rng.integers(2, 60)), rng)
        perm = rng.permutation(t.n)
        graphs.append(UnitGraph(t.n, tuple((int(perm[u]), int(perm[v])) for u, v in t.edges)))
    for k in (3, 4, 7):  # a k-cycle and one isolated vertex, k edges on k + 1 vertices
        graphs += [UnitGraph(k + 1, tuple((i, (i + 1) % k) for i in range(k))),
                   UnitGraph(k + 1, tuple((i + 1, (i + 1) % k + 1) for i in range(k)))]
    for g in graphs:
        expected = bool(g.components.max() == 0)
        fresh = UnitGraph(g.n, g.edges)
        assert fresh.is_connected() is expected
        assert fresh.is_tree() is expected
        assert ("tree_index" in vars(fresh)) is expected
    assert sum(g.is_connected() for g in graphs) == 31


@pytest.mark.parametrize(
    "n, edges",
    [(4, ((0, 1), (1, 2), (2, 0))), (4, ((1, 2), (2, 3), (3, 1))), (5, ((0, 1), (2, 3), (3, 4)))],
)
def test_pair_distances_on_n_minus_1_disconnected_edges_keep_the_witness(n, edges):
    with pytest.raises(DisconnectedGraphError) as expected:
        UnitGraph(n, edges).distance_matrix
    with pytest.raises(DisconnectedGraphError) as got:
        UnitGraph(n, edges).pair_distances(0, n - 1)
    assert (got.value.u, got.value.v) == (expected.value.u, expected.value.v)

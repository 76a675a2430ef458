import numpy as np
import pytest

from cubekit.cubes import ConvexityError, helly_intersection, is_convex
from cubekit.graphs import (
    GraphError,
    gate_map,
    grid_graph,
    path_graph,
    random_tree,
    spider_graph,
)
from helpers import (
    convex_hull,
    halfspaces,
    hypercube_graph,
    oracle_hull,
    oracle_interval_closure,
    skeleton_of,
)


@pytest.fixture(scope="module")
def grid33_skel():
    return skeleton_of(grid_graph(3, 3))


@pytest.fixture(scope="module")
def q3_skel():
    return skeleton_of(hypercube_graph(3))


def test_path_hyperplanes():
    c = skeleton_of(path_graph(3))
    assert len(c.hyperplanes) == 2
    assert c.dimension == 1


def test_cube_hyperplanes_pairwise_crossing(q3_skel):
    assert len(q3_skel.hyperplanes) == 3
    assert q3_skel.dimension == 3
    # exhaustive: all three pairs cross (all four quarters nonempty)
    for i in range(3):
        for j in range(i + 1, 3):
            a0, a1 = (set(s) for s in halfspaces(q3_skel)[i])
            b0, b1 = (set(s) for s in halfspaces(q3_skel)[j])
            assert a0 & b0 and a0 & b1 and a1 & b0 and a1 & b1


def test_grid_hyperplanes(grid33_skel):
    assert len(grid33_skel.hyperplanes) == 4
    assert grid33_skel.dimension == 2


def test_each_edge_in_one_class(grid33_skel):
    seen = set()
    for cls in grid33_skel.hyperplanes:
        for e in cls:
            assert e not in seen
            seen.add(e)
    assert seen == set(grid33_skel.graph.edges)


def test_halfspaces_partition_and_convex(grid33_skel):
    g = grid33_skel.graph
    for h0, h1 in halfspaces(grid33_skel):
        assert h0 | h1 == frozenset(range(g.n)) and not (h0 & h1)
        assert oracle_interval_closure(g.n, g.edges, h0) == set(h0)
        assert oracle_interval_closure(g.n, g.edges, h1) == set(h1)
        assert convex_hull(grid33_skel, h0) == h0


# --- hulls -------------------------------------------------------------------


def test_hull_singleton(grid33_skel):
    assert convex_hull(grid33_skel, [4]) == frozenset([4])


def test_hull_opposite_corners_is_whole_grid(grid33_skel):
    g = grid33_skel.graph
    expected = oracle_interval_closure(g.n, g.edges, {0, 8})
    assert expected == set(range(9))
    assert convex_hull(grid33_skel, [0, 8]) == frozenset(expected)


def test_hull_path_endpoints():
    c = skeleton_of(path_graph(5))
    assert convex_hull(c, [0, 4]) == frozenset(range(5))


def test_hull_equals_interval_closure_random():
    skel = skeleton_of(grid_graph(4, 5))
    rng = np.random.default_rng(5)
    for _ in range(15):
        k = int(rng.integers(1, 5))
        S = [int(v) for v in rng.choice(20, size=k, replace=False)]
        assert convex_hull(skel, S) == frozenset(
            oracle_interval_closure(20, skel.graph.edges, S)
        )


def test_hull_empty_raises(grid33_skel):
    with pytest.raises(ConvexityError):
        convex_hull(grid33_skel, [])


# --- Helly, on trees ------------------------------------------------------------


@pytest.fixture(scope="module")
def spider():
    """Three legs of three edges about the centre 0: leg i is 0, 3i + 1,
    3i + 2, 3i + 3."""
    return spider_graph(3, 3)


def _legs(*legs):
    """The subtree of the spider made of the centre and the given legs."""
    return [0] + [3 * i + k for i in legs for k in (1, 2, 3)]


def test_helly_empty_family_raises(spider):
    with pytest.raises(ConvexityError, match="empty family"):
        helly_intersection(spider, [])


def test_helly_empty_member_raises(spider):
    with pytest.raises(ConvexityError, match="member 0 is empty"):
        helly_intersection(spider, [[]])


def test_helly_whole_twice(spider):
    res = helly_intersection(spider, [range(spider.n), range(spider.n)])
    assert res.found and 0 <= res.vertex < spider.n


def test_helly_three_subtrees(spider):
    # each pair of two-leg paths shares one leg; the three share the centre,
    # the median of one vertex from each pairwise meet
    family = [_legs(0, 1), _legs(1, 2), _legs(0, 2)]
    res = helly_intersection(spider, family)
    assert res.found and res.vertex == 0


def test_helly_folds_a_fourth_member(spider):
    family = [_legs(0, 1), _legs(1, 2), _legs(0, 2), [0, 1, 2]]
    res = helly_intersection(spider, family)
    assert res.found and res.vertex == 0


def test_helly_disjoint_witness(spider):
    res = helly_intersection(spider, [_legs(0, 1), [0, 1], [6]])
    assert not res.found and res.witness_pair == (1, 2)


def test_helly_nonconvex_member(spider):
    # two leg ends without the path between them
    with pytest.raises(ConvexityError, match="member 1 is not convex"):
        helly_intersection(spider, [_legs(0), [3, 6]])


def test_helly_on_a_graph_that_is_no_tree_raises():
    with pytest.raises(GraphError):
        helly_intersection(grid_graph(2, 2), [[0]])


def test_helly_random_families():
    # subtrees spanned by random points (the all-pairs oracle hull), against
    # the brute-force common vertices: the first disjoint pair, or else a
    # common vertex, which a pairwise-meeting family of subtrees has
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(60):
        tree = random_tree(int(rng.integers(1, 20)), rng)
        fam = [
            oracle_hull(tree.n, tree.edges, rng.choice(tree.n, size=int(rng.integers(1, 4))).tolist())
            for _ in range(int(rng.integers(1, 6)))
        ]
        pairs = [(i, j) for i in range(len(fam)) for j in range(i + 1, len(fam))]
        disjoint = [(i, j) for i, j in pairs if not set(fam[i]) & set(fam[j])]
        res = helly_intersection(tree, fam)
        if disjoint:
            assert not res.found and res.witness_pair == disjoint[0]
        else:
            common = set.intersection(*map(set, fam))
            assert common and res.found and res.vertex in common
            found += 1
    assert 12 <= found < 60


def test_helly_on_tree():
    tree = random_tree(25, np.random.default_rng(9))
    a, b, c = (oracle_hull(tree.n, tree.edges, p) for p in ([0, 10], [10, 20], [0, 20]))
    res = helly_intersection(tree, [a, b, c])
    assert res.found and res.vertex in set(a) & set(b) & set(c)


def test_is_convex_on_a_tree():
    path = path_graph(5)
    assert is_convex(path, [1, 2, 3]) and is_convex(path, [4])
    assert not is_convex(path, [0, 2])


def test_gate_unique(grid33_skel):
    h0 = sorted(halfspaces(grid33_skel)[0][0])
    d = grid33_skel.median.dist
    gates = gate_map(d, h0)
    for x in range(9):
        assert all(d[x, gates[x]] < d[x, v] for v in h0 if v != gates[x])

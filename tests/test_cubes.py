import numpy as np
import pytest

from cubekit.cubes import (
    ConvexityError,
    convex_hull,
    gate,
    helly_intersection,
    hull_neighbourhood_check,
    hyperplane_decomposition,
    is_convex,
)
from cubekit.graphs import grid_graph, hypercube_graph, path_graph, random_tree
from cubekit.median import MedianAlgebra
from helpers import grid_v, oracle_interval_closure


@pytest.fixture(scope="module")
def grid33_skel():
    return hyperplane_decomposition(MedianAlgebra.from_graph(grid_graph(3, 3)))


@pytest.fixture(scope="module")
def q3_skel():
    return hyperplane_decomposition(MedianAlgebra.from_graph(hypercube_graph(3)))


def test_path_hyperplanes():
    c = hyperplane_decomposition(MedianAlgebra.from_graph(path_graph(3)))
    assert len(c.hyperplanes) == 2
    assert c.dimension == 1


def test_cube_hyperplanes_pairwise_crossing(q3_skel):
    assert len(q3_skel.hyperplanes) == 3
    assert q3_skel.dimension == 3
    # exhaustive: all three pairs cross (all four quarters nonempty)
    for i in range(3):
        for j in range(i + 1, 3):
            a0, a1 = (set(s) for s in q3_skel.halfspaces[i])
            b0, b1 = (set(s) for s in q3_skel.halfspaces[j])
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
    n = grid33_skel.n
    for h0, h1 in grid33_skel.halfspaces:
        assert h0 | h1 == frozenset(range(n)) and not (h0 & h1)
        assert is_convex(grid33_skel.median, h0)
        assert is_convex(grid33_skel.median, h1)
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
    c = hyperplane_decomposition(MedianAlgebra.from_graph(path_graph(5)))
    assert convex_hull(c, [0, 4]) == frozenset(range(5))


def test_hull_equals_interval_closure_random():
    skel = hyperplane_decomposition(MedianAlgebra.from_graph(grid_graph(4, 5)))
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


def test_hull_bound_empty_raises(grid33_skel):
    with pytest.raises(ConvexityError, match="empty set"):
        hull_neighbourhood_check(grid33_skel, [], 1)


def test_helly_empty_family_raises(grid33_skel):
    with pytest.raises(ConvexityError, match="empty family"):
        helly_intersection(grid33_skel.median, [])


def test_helly_empty_member_raises(grid33_skel):
    with pytest.raises(ConvexityError, match="member 0 is empty"):
        helly_intersection(grid33_skel.median, [[]])


def test_gate_to_empty_set_raises(grid33_skel):
    with pytest.raises(ConvexityError, match="empty set"):
        gate(grid33_skel.median, [], 0)


# --- hull-neighbourhood bound -------------------------------------------------


def test_hull_bound_r0(grid33_skel):
    rep = hull_neighbourhood_check(grid33_skel, convex_hull(grid33_skel, [0, 1]), 0)
    assert rep.verdict and rep.max_excess <= 0


def test_hull_bound_grid_diamond():
    skel = hyperplane_decomposition(MedianAlgebra.from_graph(grid_graph(5, 5)))
    rep = hull_neighbourhood_check(skel, [grid_v(2, 2, 5)], 1)
    assert rep.verdict and rep.dimension == 2
    assert rep.max_excess <= 0


def test_hull_bound_cube(q3_skel):
    rep = hull_neighbourhood_check(q3_skel, [0], 1)
    assert rep.verdict and rep.dimension == 3


def test_hull_bound_rejects_nonconvex(grid33_skel):
    with pytest.raises(ConvexityError):
        hull_neighbourhood_check(grid33_skel, [0, 8], 1)


def test_hull_bound_random_trials():
    fixtures = [
        hyperplane_decomposition(MedianAlgebra.from_graph(g))
        for g in [grid_graph(4, 4), hypercube_graph(3), grid_graph(2, 6)]
    ]
    rng = np.random.default_rng(6)
    for skel in fixtures:
        for _ in range(10):
            k = int(rng.integers(1, 4))
            Z = convex_hull(skel, [int(v) for v in rng.choice(skel.n, size=k, replace=False)])
            for r in (1, 2, 3):
                rep = hull_neighbourhood_check(skel, Z, r)
                assert rep.verdict and rep.max_excess <= 0


# --- Helly --------------------------------------------------------------------


def test_helly_whole_twice(grid33_skel):
    res = helly_intersection(grid33_skel.median, [range(9), range(9)])
    assert res.found and 0 <= res.vertex < 9


def test_helly_three_strips(grid33_skel):
    rows01 = [grid_v(r, c, 3) for r in (0, 1) for c in range(3)]
    cols12 = [grid_v(r, c, 3) for r in range(3) for c in (1, 2)]
    diag_hull = convex_hull(grid33_skel, [0, 8])
    res = helly_intersection(grid33_skel.median, [rows01, cols12, diag_hull])
    assert res.found
    expected = set(rows01) & set(cols12) & diag_hull
    assert res.vertex in expected


def test_helly_disjoint_witness(grid33_skel):
    res = helly_intersection(grid33_skel.median, [[0], [8]])
    assert not res.found and res.witness_pair == (0, 1)


def test_helly_nonconvex_member(grid33_skel):
    with pytest.raises(ConvexityError):
        helly_intersection(grid33_skel.median, [[0, 8]])


def test_helly_random_families():
    skel = hyperplane_decomposition(MedianAlgebra.from_graph(grid_graph(4, 5)))
    rng = np.random.default_rng(8)
    done = 0
    while done < 12:
        fam = []
        for _ in range(int(rng.integers(2, 6))):
            k = int(rng.integers(1, 4))
            fam.append(convex_hull(skel, [int(v) for v in rng.choice(20, size=k, replace=False)]))
        if all(a & b for a in fam for b in fam):
            res = helly_intersection(skel.median, fam)
            assert res.found
            assert all(res.vertex in S for S in fam)
            done += 1


def test_helly_on_tree():
    tree = random_tree(25, np.random.default_rng(9))
    skel = hyperplane_decomposition(MedianAlgebra.from_graph(tree))
    a = convex_hull(skel, [0, 10])
    b = convex_hull(skel, [10, 20])
    c = convex_hull(skel, [0, 20])
    res = helly_intersection(skel.median, [a, b, c])
    assert res.found


def test_gate_unique(grid33_skel):
    h0 = grid33_skel.halfspaces[0][0]
    for x in range(9):
        g = gate(grid33_skel.median, h0, x)
        d = grid33_skel.median.dist
        assert all(d[x, g] <= d[x, v] for v in h0)

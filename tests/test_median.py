import itertools
import re

import numpy as np
import pytest

from cubekit.graphs import (
    UnitGraph,
    component_labels,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_tree,
)
from cubekit.median import (
    BLOCK,
    MedianAlgebra,
    MedianError,
    NotMedianGraphError,
    connectify_and_close_in,
    interval_medians,
    is_median_graph,
    orientation_search,
    row_index,
)
from helpers import (
    check_isometric_subalgebra,
    closure_of,
    complete_bipartite_graph,
    cycle_graph,
    grid_v,
    is_median_closed,
    oracle_all_dists,
    oracle_closure,
    oracle_is_median,
    oracle_medians_of,
)


@pytest.fixture(scope="module")
def grid33():
    return MedianAlgebra.from_graph(grid_graph(3, 3))


@pytest.fixture(scope="module")
def grid55():
    return MedianAlgebra.from_graph(grid_graph(5, 5))


# --- recognition ----------------------------------------------------------


def test_named_fixtures():
    assert is_median_graph(hypercube_graph(3))[0]
    assert is_median_graph(grid_graph(4, 6))[0]
    ok, witness = is_median_graph(cycle_graph(6))
    assert not ok and witness is not None
    x, y, z = witness
    g = cycle_graph(6)
    dist = oracle_all_dists(g.n, g.edges)
    assert len(oracle_medians_of(dist, x, y, z)) != 1
    assert not is_median_graph(complete_bipartite_graph(2, 3))[0]


def _connected_graphs_upto(n_max):
    for n in range(1, n_max + 1):
        all_pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            edges = tuple(all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1)
            g = UnitGraph(n, edges)
            if g.is_connected():
                yield g


def test_agrees_with_oracle_exhaustive_small():
    count = 0
    for g in _connected_graphs_upto(4):
        expected, _ = oracle_is_median(g.n, g.edges)
        assert is_median_graph(g)[0] == expected
        count += 1
    assert count > 40


def test_agrees_with_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(5, 11))
        base = random_tree(n, rng)
        extra = []
        for _ in range(int(rng.integers(0, 4))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and (min(u, v), max(u, v)) not in base.edges + tuple(extra):
                extra.append((min(u, v), max(u, v)))
        g = UnitGraph(n, base.edges + tuple(extra))
        expected, _ = oracle_is_median(g.n, g.edges)
        assert is_median_graph(g)[0] == expected


# --- the median operation -------------------------------------------------


def test_path_midpoint():
    m = MedianAlgebra.from_graph(path_graph(3))
    assert m.median(0, 1, 2) == 1


def test_absorption_everywhere(grid33):
    # m(x, x, y) = x for all pairs
    for x in range(grid33.n):
        for y in range(grid33.n):
            assert grid33.median(x, x, y) == x


def test_cube_median_frozen_from_bruteforce():
    g = hypercube_graph(3)
    dist = oracle_all_dists(g.n, g.edges)
    meds = oracle_medians_of(dist, 4, 2, 1)  # bitmasks 100, 010, 001
    assert meds == [0]
    m = MedianAlgebra.from_graph(g)
    assert m.median(4, 2, 1) == 0


def test_median_symmetry(grid55):
    rng = np.random.default_rng(1)
    for _ in range(60):
        x, y, z = (int(v) for v in rng.integers(0, grid55.n, size=3))
        base = grid55.median(x, y, z)
        for p in itertools.permutations((x, y, z)):
            assert grid55.median(*p) == base


def test_median_one_lipschitz(grid55):
    # d(m(a,b,y), m(a,b,z)) <= d(y,z)
    rng = np.random.default_rng(2)
    D = grid55.dist
    for _ in range(120):
        a, b, y, z = (int(v) for v in rng.integers(0, grid55.n, size=4))
        my = grid55.median(a, b, y)
        mz = grid55.median(a, b, z)
        assert D[my, mz] <= D[y, z]


def test_rank_is_cube_dimension(grid33):
    assert grid33.rank == 2
    assert MedianAlgebra.from_graph(hypercube_graph(3)).rank == 3
    assert MedianAlgebra.from_graph(path_graph(6)).rank == 1


# --- closures --------------------------------------------------------------


def test_singleton_closed(grid33):
    assert closure_of(grid33, [4]) == frozenset([4])


def test_two_corners_closed(grid33):
    expected = oracle_closure(9, grid33.graph.edges, {0, 8})
    assert expected == {0, 8}
    assert closure_of(grid33, [0, 8]) == frozenset(expected)


def test_three_corners_closure_matches_saturation_oracle(grid33):
    # the saturation oracle is the source of truth for the expected set
    expected = oracle_closure(9, grid33.graph.edges, {0, 2, 6})
    assert closure_of(grid33, [0, 2, 6]) == frozenset(expected)


def test_closure_matches_oracle_random(grid55):
    rng = np.random.default_rng(3)
    for _ in range(12):
        k = int(rng.integers(2, 5))
        seed = [int(v) for v in rng.choice(grid55.n, size=k, replace=False)]
        assert closure_of(grid55, seed) == frozenset(
            oracle_closure(grid55.n, grid55.graph.edges, seed)
        )


def test_median_closed_witness_is_least_a_then_c_then_b():
    m = MedianAlgebra.from_graph(grid_graph(4, 4))
    S = [0, 1, 4, 7, 13]
    # escaping triples include (1, 7, 4) (least c) and (0, 13, 7) (least a)
    assert m.median(1, 7, 4) == 5 and m.median(0, 13, 7) == 5
    assert is_median_closed(m, S) == (False, (0, 13, 7))


def test_median_bulk_broadcasts_a_and_c(grid55):
    rng = np.random.default_rng(4)
    a, b, c = (rng.integers(0, grid55.n, size=30) for _ in range(3))
    D = grid55.dist
    expected = [oracle_medians_of(D, *t) for t in zip(a, b, c)]
    assert [[m] for m in grid55.median_bulk(a, b, c).tolist()] == expected
    assert [[m] for m in grid55.median_bulk(int(a[0]), b, c).tolist()] == [
        oracle_medians_of(D, int(a[0]), y, z) for y, z in zip(b, c)
    ]


def test_median_bulk_on_a_non_median_graph_names_the_triple():
    m = MedianAlgebra(complete_bipartite_graph(2, 3), rank=1)  # skips the check
    with pytest.raises(NotMedianGraphError) as err:
        m.median_bulk(np.array([0, 2]), np.array([0, 3]), np.array([2, 4]))
    assert err.value.witness == (2, 3, 4) and err.value.count == 2


@pytest.mark.parametrize("g", [complete_bipartite_graph(2, 3), cycle_graph(5)], ids=["K23", "C5"])
def test_from_graph_refusal_counts_the_witness_medians(g):
    with pytest.raises(NotMedianGraphError) as err:
        MedianAlgebra.from_graph(g)
    dist = oracle_all_dists(g.n, g.edges)
    assert err.value.count == len(oracle_medians_of(dist, *err.value.witness)) != 1


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 1])
@pytest.mark.parametrize(
    "graph",
    [grid_graph(3, 4), hypercube_graph(3), random_tree(9, np.random.default_rng(3)),
     complete_bipartite_graph(2, 3), cycle_graph(5)],
    ids=["grid", "cube", "tree", "K23", "C5"],
)
def test_interval_medians_match_the_oracle(graph, size):
    # past one triple, C5 gives triples with no median and K23 ones with two
    dist = oracle_all_dists(graph.n, graph.edges)
    rng = np.random.default_rng(size)
    a, b, c = (rng.integers(0, graph.n, size=size) for _ in range(3))
    least, count = interval_medians(np.array(dist), a, b, c)
    meds = [oracle_medians_of(dist, *t) for t in zip(a.tolist(), b.tolist(), c.tolist())]
    assert count.tolist() == [len(m) for m in meds]
    assert least.tolist() == [m[0] if m else 0 for m in meds]


def test_closure_of_empty_raises(grid33):
    with pytest.raises(MedianError):
        closure_of(grid33, [])


def test_closure_of_the_whole_grid_is_its_dual():
    # 3 x 4 grid: five walls, every vertex an orientation, the search from
    # corner 0 walks it in layers out to the far corner, 5 flips away
    g = grid_graph(3, 4)
    H = MedianAlgebra.from_graph(g).wall_sides(range(g.n))
    found, flips = orientation_search(H ^ H[0])
    assert len(found) == g.n and len({row.tobytes() for row in found}) == g.n
    assert found.sum(axis=1).tolist() == sorted(found.sum(axis=1).tolist())
    assert len(flips) == len(g.edges)
    assert ((found[flips[:, 1]] & ~found[flips[:, 0]]).sum(axis=1) == 1).all()
    assert (found[flips[:, 0]] <= found[flips[:, 1]]).all()


def test_row_index_finds_rows_and_marks_the_rest():
    table = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=bool)
    rows = np.array([[0, 0, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]], dtype=bool)
    assert row_index(table, rows).tolist() == [2, -1, 0, 1]
    assert row_index(np.zeros((1, 0), dtype=bool), np.zeros((3, 0), dtype=bool)).tolist() == [0] * 3


class DroppingSpace:
    """grid33's walls, with one orientation's vertex made unknown."""

    def __init__(self, space, drop):
        self.space, self.drop = space, drop

    def wall_sides(self, verts):
        return self.space.wall_sides(verts)

    def vertices_of(self, sides):
        out = self.space.vertices_of(sides)
        return np.where(out == self.drop, -1, out)


def test_an_orientation_without_a_vertex_is_named(grid33):
    # 3 x 3 grid, rows of 0 1 2 / 3 4 5 / 6 7 8: vertex 4 = m(1, 3, 8)
    assert closure_of(grid33, [1, 3, 8]) == {1, 3, 4, 8}
    sides = grid33.wall_sides([1, 4])
    flipped = np.flatnonzero(sides[0] != sides[1]).tolist()
    expected = f"no vertex has the coherent orientation that differs from 1 on the walls {flipped}"
    with pytest.raises(MedianError, match=re.escape(expected)):
        closure_of(DroppingSpace(grid33, 4), [1, 3, 8])


# --- connectify and close ---------------------------------------------------


def _one_connected(m, S):
    """Whether the unit-step graph on S is connected, from the metric."""
    cl = sorted(S)
    return component_labels(m.dist[np.ix_(cl, cl)] <= 1).max() == 0


def test_connectify_fixpoint(grid33):
    closed = sorted(closure_of(grid33, [0, 1, 2]))
    res = connectify_and_close_in(grid33, closed, C=3)
    assert res.a_prime == frozenset(closed)
    assert res.closure == frozenset(closed)
    assert res.hausdorff == 0 and _one_connected(grid33, res.closure)


def test_connectify_two_segments():
    m = MedianAlgebra.from_graph(grid_graph(4, 4))
    seg_a = [grid_v(r, 0, 4) for r in range(4)]
    seg_b = [grid_v(r, 2, 4) for r in range(4)]
    res = connectify_and_close_in(m, seg_a + seg_b, C=2)
    assert _one_connected(m, res.closure)
    ok_closed, _ = is_median_closed(m, res.closure)
    assert ok_closed
    assert 0 < res.hausdorff < 4
    # the search's arrays stay out of the result's value: equal, hashable,
    # short repr
    again = connectify_and_close_in(m, seg_a + seg_b, C=2)
    assert res == again and hash(res) == hash(again)
    assert "orientations" not in repr(res) and "flips" not in repr(res)


def test_connectify_sparse_path():
    m = MedianAlgebra.from_graph(path_graph(11))
    res = connectify_and_close_in(m, [0, 2, 4, 6, 8, 10], C=2)
    assert _one_connected(m, res.closure)
    assert res.closure == frozenset(range(11))
    assert res.hausdorff == 1


def test_connectify_requires_c_connected(grid55):
    with pytest.raises(MedianError):
        connectify_and_close_in(grid55, [0, 24], C=2)


def test_connectify_random_property(grid55):
    rng = np.random.default_rng(4)
    for _ in range(15):
        walk = [int(rng.integers(0, grid55.n))]
        for _ in range(10):
            walk.append(int(rng.choice(grid55.graph.neighbors(walk[-1]))))
        subset = sorted(set(walk[::2]))  # 2-connected by construction
        res = connectify_and_close_in(grid55, subset, C=2)
        assert _one_connected(grid55, res.closure)
        assert is_median_closed(grid55, res.closure)[0]
        assert res.hausdorff >= 0
        assert check_isometric_subalgebra(grid55, res.closure)


# --- isometric subalgebras ---------------------------------------------------


def test_whole_graph_isometric(grid33):
    assert check_isometric_subalgebra(grid33, range(9))


def test_closure_of_bridged_corners_isometric(grid33):
    Y = connectify_and_close_in(grid33, [0, 2, 6], C=2).closure
    assert check_isometric_subalgebra(grid33, Y)


def test_l_shape_isometric():
    m = MedianAlgebra.from_graph(grid_graph(4, 4))
    L = [grid_v(r, 0, 4) for r in range(4)] + [grid_v(3, c, 4) for c in range(1, 4)]
    ok_closed, _ = is_median_closed(m, L)
    assert ok_closed
    assert check_isometric_subalgebra(m, L)


def test_isometric_preconditions_reported(grid55):
    with pytest.raises(MedianError, match="1-connected"):
        check_isometric_subalgebra(grid55, [0, 24])
    # U-shape: 1-connected but the median of (2, 5, 11) escapes to vertex 6
    with pytest.raises(MedianError, match="median-closed"):
        check_isometric_subalgebra(grid55, [0, 5, 10, 11, 12, 7, 2])

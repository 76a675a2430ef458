import numpy as np
import pytest

from cubekit.graphs import (
    grid_graph,
    path_graph,
    random_tree,
)
from cubekit.walls import (
    Orientation,
    Wallspace,
    WallspaceError,
    dual_cube_complex,
)
from helpers import (
    are_isomorphic,
    duality_roundtrip,
    halfspaces,
    hypercube_graph,
    oracle_is_coherent,
    skeleton_of,
    walls_of_skeleton,
)


def _crossing_walls(k):
    """k pairwise-crossing walls on 2^k points (coordinate cuts)."""
    n = 1 << k
    walls = []
    for b in range(k):
        left = frozenset(v for v in range(n) if not v >> b & 1)
        walls.append((left, frozenset(range(n)) - left))
    return Wallspace(n, tuple(walls))


def _nested_walls(k):
    """k pairwise-nested walls on k+1 points (prefix cuts)."""
    n = k + 1
    walls = tuple(
        (frozenset(range(i + 1)), frozenset(range(i + 1, n))) for i in range(k)
    )
    return Wallspace(n, walls)


def test_single_wall_two_orientations():
    w = Wallspace(2, ((frozenset([0]), frozenset([1])),))
    assert len(dual_cube_complex(w).orientations) == 2


def test_two_crossing_walls_four_orientations():
    assert len(dual_cube_complex(_crossing_walls(2)).orientations) == 4


def test_two_nested_walls_three_orientations():
    w = _nested_walls(2)
    orients = dual_cube_complex(w).orientations
    # enumerate all four choices; exactly one pair of sides is disjoint
    all_four = [Orientation((a, b)) for a in (0, 1) for b in (0, 1)]
    expected = [o for o in all_four if oracle_is_coherent(w, o)]
    assert len(expected) == 3
    assert sorted(o.sides for o in orients) == sorted(o.sides for o in expected)


def test_wall_validation():
    with pytest.raises(WallspaceError):
        Wallspace(3, ((frozenset([0, 1, 2]), frozenset()),))
    with pytest.raises(WallspaceError):
        Wallspace(3, ((frozenset([0]), frozenset([1])),))


def test_dual_beyond_25_walls_lists_every_orientation():
    # 26 nested walls: a path; 27 singleton walls: a star whose centre
    # picks the large side of every wall (side 1 of wall 0, side 0 of the
    # rest, whose side 0 holds point 0), which no principal orientation does
    assert are_isomorphic(dual_cube_complex(_nested_walls(26)).skeleton.graph, path_graph(27))
    n = 27
    w = Wallspace(n, tuple((frozenset([i]), frozenset(range(n)) - {i}) for i in range(n)))
    dual = dual_cube_complex(w)
    assert dual.skeleton.n == n + 1 and len(dual.skeleton.graph.edges) == n
    centre = dual.orientations.index(Orientation((1,) + (0,) * (n - 1)))
    degrees = np.bincount(np.ravel(dual.skeleton.graph.edges), minlength=n + 1)
    assert degrees[centre] == n and (np.delete(degrees, centre) == 1).all()


def test_equal_walls_are_refused():
    with pytest.raises(WallspaceError, match="walls 0 and 1 are the same"):
        Wallspace(3, ((frozenset([0]), frozenset([1, 2])), (frozenset([1, 2]), frozenset([0]))))


def test_no_walls_give_one_orientation():
    dual = dual_cube_complex(Wallspace(3, ()))
    assert dual.orientations == (Orientation(()),) and dual.skeleton.n == 1


def test_dual_of_crossing_walls_is_cube():
    for k in (2, 3, 4):
        dual = dual_cube_complex(_crossing_walls(k))
        assert dual.skeleton.n == 1 << k
        assert are_isomorphic(dual.skeleton.graph, hypercube_graph(k))


def test_dual_of_nested_walls_is_path():
    for k in (1, 2, 5):
        dual = dual_cube_complex(_nested_walls(k))
        assert are_isomorphic(dual.skeleton.graph, path_graph(k + 1))


def test_dual_of_q3_walls_is_q3():
    skel = skeleton_of(hypercube_graph(3))
    dual = dual_cube_complex(walls_of_skeleton(skel))
    assert dual.skeleton.n == 8
    assert are_isomorphic(dual.skeleton.graph, hypercube_graph(3))


def test_roundtrip_fixtures():
    graphs = [
        path_graph(6),
        grid_graph(3, 4),
        hypercube_graph(3),
        random_tree(20, np.random.default_rng(10)),
    ]
    for g in graphs:
        skel = skeleton_of(g)
        ok, dual, mapping = duality_roundtrip(skel)
        assert ok
        assert len(mapping) == g.n


def test_roundtrip_of_a_30_wall_tree():
    # the tree has one wall per edge; every coherent orientation is a vertex
    g = random_tree(31, np.random.default_rng(11))
    skel = skeleton_of(g)
    assert len(halfspaces(skel)) == 30
    ok, dual, mapping = duality_roundtrip(skel)
    assert ok and len(dual.orientations) == len(mapping) == 31


def test_wallspace_json_roundtrip():
    w = _crossing_walls(3)
    assert Wallspace.from_dict(w.to_dict()) == w
